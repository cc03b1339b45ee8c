// Copyright 2026 The ConsensusDB Authors
//
// Dense bivariate polynomials with per-variable degree truncation, the
// polynomial type of the pointer-fold oracles for the paper's two-variable
// generating functions (the library folds them over FlatTree rows in the
// same row-major layout):
//  * rank distributions (Example 3): variables (x, y) truncated at (k, 1);
//  * expected Jaccard distance (Lemma 1): variables (x, y) truncated at
//    (|W|, n - |W|);
//  * pairwise order probabilities and q statistics for Kendall tau.

#ifndef CPDB_ORACLE_POLY2_H_
#define CPDB_ORACLE_POLY2_H_

#include <string>
#include <vector>

namespace cpdb {

/// \brief A polynomial in two variables (x, y) over double coefficients,
/// truncated at max degrees (max_dx, max_dy).
///
/// Coefficients are stored densely in row-major order; Coeff(i, j) is the
/// coefficient of x^i y^j. Binary operations require identical truncation
/// bounds on both operands.
class Poly2 {
 public:
  Poly2(int max_dx, int max_dy);

  static Poly2 Constant(int max_dx, int max_dy, double c);

  /// \brief The monomial c * x^i y^j (zero if (i, j) exceeds the bounds).
  static Poly2 Monomial(int max_dx, int max_dy, int i, int j, double c);

  int max_dx() const { return max_dx_; }
  int max_dy() const { return max_dy_; }

  double Coeff(int i, int j) const;
  void SetCoeff(int i, int j, double c);

  /// \brief Evaluation at a point; for probability generating functions
  /// Eval(1, 1) is the total retained mass.
  double Eval(double x, double y) const;

  /// \brief Sum of all coefficients (= Eval(1, 1) without rounding drift
  /// from powering).
  double SumCoeffs() const;

  Poly2& operator+=(const Poly2& other);
  Poly2& operator*=(double scalar);

  friend Poly2 operator+(Poly2 a, const Poly2& b) { return a += b; }
  friend Poly2 operator*(Poly2 a, double s) { return a *= s; }
  friend Poly2 operator*(double s, Poly2 a) { return a *= s; }
  friend Poly2 operator*(const Poly2& a, const Poly2& b);

  /// \brief Adds `scale * other` into this polynomial.
  void AddScaled(const Poly2& other, double scale);

  void AddConstant(double c) { coeffs_[0] += c; }

  std::string ToString() const;

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * static_cast<size_t>(max_dy_ + 1) +
           static_cast<size_t>(j);
  }

  int max_dx_;
  int max_dy_;
  std::vector<double> coeffs_;
};

}  // namespace cpdb

#endif  // CPDB_ORACLE_POLY2_H_
