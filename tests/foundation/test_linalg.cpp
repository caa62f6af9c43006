#include "linalg/decompose.h"
#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

namespace w4k::linalg {
namespace {

using namespace std::complex_literals;

TEST(CVector, NormOfKnownVector) {
  CVector v{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
}

TEST(CVector, NormalizedHasUnitNorm) {
  CVector v{{1.0, 2.0}, {-3.0, 0.5}, {0.0, 1.0}};
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-14);
}

TEST(CVector, NormalizeZeroThrows) {
  CVector v(3);
  EXPECT_THROW(v.normalized(), std::domain_error);
}

TEST(CVector, ConjNegatesImaginary) {
  CVector v{{1.0, 2.0}};
  EXPECT_EQ(v.conj()[0], Complex(1.0, -2.0));
}

TEST(CVector, ArithmeticOperators) {
  CVector a{{1.0, 0.0}, {2.0, 0.0}};
  CVector b{{0.5, 0.0}, {-1.0, 0.0}};
  const CVector sum = a + b;
  EXPECT_EQ(sum[0], Complex(1.5, 0.0));
  EXPECT_EQ(sum[1], Complex(1.0, 0.0));
  const CVector scaled = a * Complex(2.0, 0.0);
  EXPECT_EQ(scaled[1], Complex(4.0, 0.0));
}

TEST(CVector, SizeMismatchThrows) {
  CVector a(2), b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(CVector, DotConjugatesFirstArgument) {
  CVector a{{0.0, 1.0}};  // i
  CVector b{{0.0, 1.0}};  // i
  // <a, b> = conj(i) * i = 1.
  EXPECT_EQ(dot(a, b), Complex(1.0, 0.0));
}

TEST(CMatrix, IdentityMultiplication) {
  const CMatrix id = CMatrix::identity(3);
  CVector v{{1.0, 1.0}, {2.0, -1.0}, {0.0, 3.0}};
  const CVector w = id * v;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(w[i], v[i]);
}

TEST(CMatrix, HermitianTransposesAndConjugates) {
  CMatrix m(2, 3);
  m(0, 1) = Complex(1.0, 2.0);
  const CMatrix h = m.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(1, 0), Complex(1.0, -2.0));
}

TEST(CMatrix, MatrixProductKnownValue) {
  CMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 3.0; a(1, 1) = 4.0;
  b(0, 0) = 5.0; b(0, 1) = 6.0; b(1, 0) = 7.0; b(1, 1) = 8.0;
  const CMatrix c = a * b;
  EXPECT_EQ(c(0, 0), Complex(19.0, 0.0));
  EXPECT_EQ(c(1, 1), Complex(50.0, 0.0));
}

TEST(CMatrix, DimensionMismatchThrows) {
  CMatrix a(2, 3);
  CVector v(2);
  EXPECT_THROW(a * v, std::invalid_argument);
}

TEST(CMatrix, FromRowsRoundTrip) {
  CVector r0{{1.0, 0.0}, {2.0, 0.0}};
  CVector r1{{3.0, 0.0}, {4.0, 0.0}};
  const CMatrix m = CMatrix::from_rows({r0, r1});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.row(0)[1], Complex(2.0, 0.0));
  EXPECT_EQ(m.col(0)[1], Complex(3.0, 0.0));
}

TEST(CMatrix, FrobeniusNorm) {
  CMatrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

// --- Decompositions ---------------------------------------------------------

/// dominant_right_singular_into over a copy of `a`'s rows (row-major).
DominantSVD svd_of(const CMatrix& a, Rng& rng) {
  std::vector<Complex> rows;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) rows.push_back(a(r, c));
  DominantSVD out;
  dominant_right_singular_into(rows, a.cols(), rng, out);
  return out;
}

CMatrix gaussian_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  CMatrix a(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      a(r, c) = Complex(rng.gaussian(), rng.gaussian());
  return a;
}

/// No random unit vector may beat v1's response ||A v1|| = sigma1.
void expect_maximizes_response(const CMatrix& a, const DominantSVD& svd,
                               Rng& rng) {
  const double best = (a * svd.right_singular).norm();
  EXPECT_NEAR(best, svd.singular_value, 1e-6 * svd.singular_value);
  for (int trial = 0; trial < 200; ++trial) {
    CVector v(a.cols());
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = Complex(rng.gaussian(), rng.gaussian());
    EXPECT_LE((a * v.normalized()).norm(), best + 1e-6);
  }
}

TEST(DominantSVD, RankOneMatrixRecovered) {
  // A = sigma * u v^H: the dominant right singular vector is v.
  CVector v{{0.6, 0.0}, {0.0, 0.8}};
  CMatrix a(1, 2);
  a(0, 0) = std::conj(v[0]) * 5.0;
  a(0, 1) = std::conj(v[1]) * 5.0;
  Rng rng(1);
  const auto svd = svd_of(a, rng);
  EXPECT_NEAR(svd.singular_value, 5.0, 1e-9);
  // Alignment up to a global phase.
  EXPECT_NEAR(std::abs(dot(svd.right_singular, v)), 1.0, 1e-9);
}

TEST(DominantSVD, MaximizesResponseOverRandomVectors) {
  // Short-wide stack (rows < cols): the row-side Gram path.
  Rng rng(2);
  const CMatrix a = gaussian_matrix(3, 4, rng);
  expect_maximizes_response(a, svd_of(a, rng), rng);
}

TEST(DominantSVD, TallStackMaximizesResponseOverRandomVectors) {
  // Tall stack (rows > cols): the column-side Gram path. sigma1^2 is the
  // top eigenvalue of A^H A.
  Rng rng(5);
  const CMatrix a = gaussian_matrix(6, 3, rng);
  const auto svd = svd_of(a, rng);
  EXPECT_EQ(svd.right_singular.size(), 3u);
  EXPECT_NEAR(svd.right_singular.norm(), 1.0, 1e-12);
  const auto eig = hermitian_eigen(a.hermitian() * a);
  EXPECT_NEAR(svd.singular_value * svd.singular_value, eig[0].value, 1e-8);
  expect_maximizes_response(a, svd, rng);
}

TEST(DominantSVD, ScratchReuseAcrossShapesIsInvisible) {
  // One reserved DominantSVD reused across stacks of both shapes gives
  // the results of a fresh one per call, bit for bit.
  Rng gen(6);
  const CMatrix wide = gaussian_matrix(2, 8, gen);
  const CMatrix tall = gaussian_matrix(8, 2, gen);
  DominantSVD reused;
  reused.reserve(8);
  for (const CMatrix* a : {&wide, &tall, &wide}) {
    Rng r1(7);
    const auto fresh = svd_of(*a, r1);
    std::vector<Complex> rows;
    for (std::size_t r = 0; r < a->rows(); ++r)
      for (std::size_t c = 0; c < a->cols(); ++c) rows.push_back((*a)(r, c));
    Rng r2(7);
    dominant_right_singular_into(rows, a->cols(), r2, reused);
    EXPECT_EQ(fresh.singular_value, reused.singular_value);
    EXPECT_EQ(fresh.iterations, reused.iterations);
    ASSERT_EQ(fresh.right_singular.size(), reused.right_singular.size());
    for (std::size_t i = 0; i < fresh.right_singular.size(); ++i)
      EXPECT_EQ(fresh.right_singular[i], reused.right_singular[i]);
  }
}

TEST(DominantSVD, ZeroMatrix) {
  CMatrix a(2, 2);
  Rng rng(3);
  const auto svd = svd_of(a, rng);
  EXPECT_DOUBLE_EQ(svd.singular_value, 0.0);
  EXPECT_NEAR(svd.right_singular.norm(), 1.0, 1e-12);
}

TEST(DominantSVD, EmptyMatrix) {
  CMatrix a;
  Rng rng(4);
  const auto svd = svd_of(a, rng);
  EXPECT_EQ(svd.right_singular.size(), 0u);
}

TEST(DominantSVD, RaggedStackThrows) {
  const std::vector<Complex> rows(5, Complex(1.0, 0.0));
  Rng rng(9);
  DominantSVD out;
  EXPECT_THROW(dominant_right_singular_into(rows, 2, rng, out),
               std::invalid_argument);
}

TEST(HermitianEigen, DiagonalMatrix) {
  CMatrix m(3, 3);
  m(0, 0) = 1.0;
  m(1, 1) = 5.0;
  m(2, 2) = 3.0;
  const auto pairs = hermitian_eigen(m);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_NEAR(pairs[0].value, 5.0, 1e-10);
  EXPECT_NEAR(pairs[1].value, 3.0, 1e-10);
  EXPECT_NEAR(pairs[2].value, 1.0, 1e-10);
}

TEST(HermitianEigen, ComplexHermitianKnownEigenvalues) {
  // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
  CMatrix m(2, 2);
  m(0, 0) = 2.0;
  m(0, 1) = 1.0i;
  m(1, 0) = -1.0i;
  m(1, 1) = 2.0;
  const auto pairs = hermitian_eigen(m);
  EXPECT_NEAR(pairs[0].value, 3.0, 1e-10);
  EXPECT_NEAR(pairs[1].value, 1.0, 1e-10);
  // Eigenvector property: ||M v - lambda v|| ~ 0.
  for (const auto& p : pairs) {
    CVector mv = m * p.vector;
    CVector lv = p.vector * Complex(p.value, 0.0);
    EXPECT_NEAR((mv - lv).norm(), 0.0, 1e-9);
  }
}

TEST(HermitianEigen, TraceEqualsEigenvalueSum) {
  Rng rng(5);
  CMatrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    m(r, r) = rng.gaussian();
    for (std::size_t c = r + 1; c < 4; ++c) {
      m(r, c) = Complex(rng.gaussian(), rng.gaussian());
      m(c, r) = std::conj(m(r, c));
    }
  }
  double trace = 0.0;
  for (std::size_t i = 0; i < 4; ++i) trace += std::real(m(i, i));
  const auto pairs = hermitian_eigen(m);
  double sum = 0.0;
  for (const auto& p : pairs) sum += p.value;
  EXPECT_NEAR(sum, trace, 1e-9);
}

TEST(HermitianEigen, NonSquareThrows) {
  EXPECT_THROW(hermitian_eigen(CMatrix(2, 3)), std::invalid_argument);
}

TEST(LeastSquares, ExactSolutionForSquareSystem) {
  CMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  CVector b{{2.0, 0.0}, {8.0, 0.0}};
  const CVector x = solve_least_squares(a, b);
  EXPECT_NEAR(std::abs(x[0] - Complex(1.0, 0.0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(x[1] - Complex(2.0, 0.0)), 0.0, 1e-6);
}

TEST(LeastSquares, OverdeterminedConsistentSystem) {
  Rng rng(6);
  const std::size_t m = 12, n = 4;
  CMatrix a(m, n);
  CVector truth(n);
  for (std::size_t i = 0; i < n; ++i)
    truth[i] = Complex(rng.gaussian(), rng.gaussian());
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      a(r, c) = Complex(rng.gaussian(), rng.gaussian());
  const CVector b = a * truth;
  const CVector x = solve_least_squares(a, b);
  EXPECT_NEAR((x - truth).norm(), 0.0, 1e-6);
}

TEST(LeastSquares, DimensionMismatchThrows) {
  EXPECT_THROW(solve_least_squares(CMatrix(3, 2), CVector(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace w4k::linalg
