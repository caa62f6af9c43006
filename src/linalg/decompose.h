// Matrix decompositions needed by multicast beamforming.
//
// The paper's max-sum RSS heuristic (Sec. 2.5) needs only the *dominant*
// right singular vector of the stacked channel matrix H, which we obtain by
// power iteration on the smaller of the two Hermitian PSD Gram matrices
// (H H^H for the short-wide stacks the group beamformer builds).
// For unit tests and ablations we also expose a full Hermitian
// eigendecomposition via the complex Jacobi method.
#pragma once

#include "common/rng.h"
#include "linalg/matrix.h"

#include <cstddef>
#include <span>
#include <vector>

namespace w4k::linalg {

/// Result of the dominant-singular-vector computation, plus the scratch
/// the power iteration reuses from call to call. One DominantSVD kept per
/// caller (and reserved to the widest stack it will see) makes
/// dominant_right_singular_into allocation-free.
struct DominantSVD {
  CVector right_singular;  ///< v1: first right singular vector (unit norm)
  double singular_value = 0.0;  ///< sigma1 >= 0
  int iterations = 0;           ///< power iterations actually used

  CMatrix gram;     ///< scratch: the smaller Gram matrix
  CVector iterate;  ///< scratch: the power iterate
  CVector product;  ///< scratch: gram * iterate

  /// Sizes the result and every scratch buffer to its bound for stacks up
  /// to `cols` wide (a cols x cols Gram, cols-long vectors), so no later
  /// call of that width or less regrows them. Clears the result.
  void reserve(std::size_t cols);
};

/// Computes the dominant right singular vector of the row-major stack
/// `rows` (rows.size() / cols rows of `cols` entries each) by power
/// iteration on the smaller of the two Gram matrices: A A^H for short-wide
/// stacks (v1 is recovered as A^H u1 / sigma1), A^H A otherwise. Either
/// Gram is accumulated in CMatrix::operator* order, so the result is the
/// one the matrix-product formulation gives, bit for bit. Deterministic:
/// the starting vector is drawn from `rng`. Converges to |lambda2/lambda1|^k;
/// `tol` bounds the relative change of the Rayleigh quotient between
/// iterations. A zero stack yields sigma1 = 0 and v1 = e_0.
///
/// The Gram matrix and the iterates live in `out`'s scratch and every
/// buffer reuses its capacity, so a reserved `out` makes the call
/// allocation-free. Throws std::invalid_argument if rows.size() is not a
/// multiple of `cols`.
void dominant_right_singular_into(std::span<const Complex> rows,
                                  std::size_t cols, Rng& rng,
                                  DominantSVD& out, int max_iters = 500,
                                  double tol = 1e-12);

/// One eigenpair of a Hermitian matrix.
struct EigenPair {
  double value = 0.0;
  CVector vector;
};

/// Full eigendecomposition of a Hermitian matrix by the cyclic complex
/// Jacobi method. Eigenpairs are returned sorted descending by eigenvalue.
/// Throws std::invalid_argument if the matrix is not square.
std::vector<EigenPair> hermitian_eigen(const CMatrix& h, int sweeps = 64,
                                       double tol = 1e-13);

/// Solves the least-squares problem min ||A x - b||_2 via normal equations
/// with Tikhonov damping `ridge` (used by ACO-style CSI estimation where A
/// holds per-beam measurement weights). Throws on dimension mismatch.
CVector solve_least_squares(const CMatrix& a, const CVector& b,
                            double ridge = 1e-9);

}  // namespace w4k::linalg
