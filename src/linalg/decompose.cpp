#include "linalg/decompose.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace w4k::linalg {

void DominantSVD::reserve(std::size_t cols) {
  gram.reshape_zero(cols, cols);
  iterate.resize_zero(cols);
  product.resize_zero(cols);
  right_singular.resize_zero(cols);
  singular_value = 0.0;
  iterations = 0;
}

void dominant_right_singular_into(std::span<const Complex> rows,
                                  std::size_t cols, Rng& rng,
                                  DominantSVD& out, int max_iters,
                                  double tol) {
  out.singular_value = 0.0;
  out.iterations = 0;
  const std::size_t m = cols == 0 ? 0 : rows.size() / cols;
  if (m * cols != rows.size())
    throw std::invalid_argument(
        "dominant_right_singular_into: rows.size() is not a multiple of cols");
  if (m == 0) {
    out.right_singular.resize_zero(0);
    return;
  }
  const Complex* a = rows.data();  // a(r, k) = a[r * cols + k]

  // Power-iterate on the *smaller* of the two Gram matrices. A^H A
  // (cols x cols) and A A^H (m x m) share their nonzero spectrum, and the
  // dominant right singular vector is recoverable from the dominant left
  // one as v1 = A^H u1 / sigma1. Group beams stack a few member rows over
  // one column per antenna, so iterating on the row-side Gram drops the
  // per-step cost from cols^2 to m^2.
  const bool row_side = m < cols;
  const std::size_t n = row_side ? m : cols;

  CMatrix& g = out.gram;
  CVector& v = out.iterate;
  CVector& w = out.product;

  // The Gram, accumulated exactly as CMatrix::operator* does for
  // a * a.hermitian() (row side) or a.hermitian() * a (column side): r
  // outer, k ascending with the zero-skip on the left factor, c inner.
  g.reshape_zero(n, n);
  if (row_side) {
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t k = 0; k < cols; ++k) {
        const Complex x = a[r * cols + k];
        if (x == Complex{}) continue;
        for (std::size_t c = 0; c < m; ++c)
          g(r, c) += x * std::conj(a[c * cols + k]);
      }
  } else {
    for (std::size_t r = 0; r < cols; ++r)
      for (std::size_t k = 0; k < m; ++k) {
        const Complex x = std::conj(a[k * cols + r]);
        if (x == Complex{}) continue;
        for (std::size_t c = 0; c < cols; ++c)
          g(r, c) += x * a[k * cols + c];
      }
  }

  v.resize_zero(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Complex(rng.gaussian(), rng.gaussian());
  if (v.norm() == 0.0) v[0] = 1.0;
  const double n0 = v.norm();
  for (std::size_t i = 0; i < n; ++i) v[i] /= n0;

  double prev_lambda = 0.0;
  bool zero_matrix = false;
  for (int it = 0; it < max_iters; ++it) {
    // One Gram matvec per iteration: w = G v feeds both the Rayleigh
    // quotient of the current iterate and the next power step.
    g.multiply_into(v, w);
    const double lambda = std::real(dot(v, w));
    const double wn = w.norm();
    out.iterations = it + 1;
    if (wn == 0.0) {
      zero_matrix = true;
      prev_lambda = 0.0;
      break;
    }
    const Complex s(1.0 / wn, 0.0);
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] * s;
    if (it > 0 && std::abs(lambda - prev_lambda) <=
                      tol * std::max(1.0, std::abs(lambda))) {
      prev_lambda = lambda;
      break;
    }
    prev_lambda = lambda;
  }
  out.singular_value = std::sqrt(std::max(0.0, prev_lambda));

  CVector& rv = out.right_singular;
  rv.resize_zero(cols);
  if (zero_matrix) {
    // A is (numerically) zero: sigma1 = 0 and any unit vector is a valid v1.
    rv[0] = 1.0;
  } else if (!row_side) {
    for (std::size_t k = 0; k < cols; ++k) rv[k] = v[k];
  } else {
    // Map the left singular vector back: rv[k] = sum_c conj(a(c, k)) v[c],
    // c ascending — the term order of a.hermitian() * v.
    for (std::size_t k = 0; k < cols; ++k) {
      Complex s = 0.0;
      for (std::size_t c = 0; c < m; ++c)
        s += std::conj(a[c * cols + k]) * v[c];
      rv[k] = s;
    }
    const double rn = rv.norm();
    if (rn > 0.0) {
      rv *= Complex(1.0 / rn, 0.0);
    } else {
      rv.resize_zero(cols);
      rv[0] = 1.0;
    }
  }
}

std::vector<EigenPair> hermitian_eigen(const CMatrix& h, int sweeps,
                                       double tol) {
  if (h.rows() != h.cols())
    throw std::invalid_argument("hermitian_eigen: matrix must be square");
  const std::size_t n = h.rows();
  CMatrix a = h;
  CMatrix v = CMatrix::identity(n);

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += std::norm(a(p, q));
    if (std::sqrt(off) <= tol * std::max(1.0, a.frobenius_norm())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const Complex apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        // Complex Jacobi rotation zeroing a(p, q).
        const double app = std::real(a(p, p));
        const double aqq = std::real(a(q, q));
        const double absapq = std::abs(apq);
        const Complex phase = apq / absapq;
        const double tau = (aqq - app) / (2.0 * absapq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const Complex s = phase * Complex(t * c, 0.0);

        // Apply rotation R(p,q,c,s) on both sides: A <- R^H A R, V <- V R.
        for (std::size_t k = 0; k < n; ++k) {
          const Complex akp = a(k, p);
          const Complex akq = a(k, q);
          a(k, p) = c * akp - std::conj(s) * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const Complex apk = a(p, k);
          const Complex aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = std::conj(s) * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const Complex vkp = v(k, p);
          const Complex vkq = v(k, q);
          v(k, p) = c * vkp - std::conj(s) * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<EigenPair> pairs(n);
  for (std::size_t i = 0; i < n; ++i) {
    pairs[i].value = std::real(a(i, i));
    pairs[i].vector = v.col(i);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const EigenPair& x, const EigenPair& y) {
              return x.value > y.value;
            });
  return pairs;
}

CVector solve_least_squares(const CMatrix& a, const CVector& b,
                            double ridge) {
  if (a.rows() != b.size())
    throw std::invalid_argument("solve_least_squares: dimension mismatch");
  const std::size_t n = a.cols();
  const CMatrix ah = a.hermitian();
  CMatrix g = ah * a;                 // n x n
  for (std::size_t i = 0; i < n; ++i) g(i, i) += ridge;
  CVector rhs = ah * b;

  // Gaussian elimination with partial pivoting on the (small) normal system.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    double best = std::abs(g(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(g(r, col));
      if (mag > best) {
        best = mag;
        piv = r;
      }
    }
    if (best == 0.0)
      throw std::domain_error("solve_least_squares: singular system");
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(g(piv, c), g(col, c));
      std::swap(rhs[piv], rhs[col]);
    }
    const Complex d = g(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const Complex f = g(r, col) / d;
      if (f == Complex{}) continue;
      for (std::size_t c = col; c < n; ++c) g(r, c) -= f * g(col, c);
      rhs[r] -= f * rhs[col];
    }
  }
  CVector x(n);
  for (std::size_t i = n; i-- > 0;) {
    Complex s = rhs[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= g(i, c) * x[c];
    x[i] = s / g(i, i);
  }
  return x;
}

}  // namespace w4k::linalg
