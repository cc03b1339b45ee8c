// Copyright 2026 The ConsensusDB Authors
//
// Dense univariate polynomials with degree truncation, the one-variable
// polynomial type of the pointer-fold oracles for the generating-function
// method of Section 3.3 of the paper (the library folds over FlatTree rows
// instead): the coefficient of x^i in the tree's generating function
// equals the total probability of the possible worlds with exactly i
// leaves tagged x (Theorem 1). Truncation makes every query
// output-sensitive: a Top-k computation only ever needs degrees 0..k.

#ifndef CPDB_ORACLE_POLY1_H_
#define CPDB_ORACLE_POLY1_H_

#include <cstddef>
#include <string>
#include <vector>

namespace cpdb {

/// \brief A univariate polynomial over double coefficients, truncated at a
/// fixed maximum degree.
///
/// All arithmetic discards terms of degree greater than `max_degree()`.
/// Binary operations require both operands to share the same truncation
/// bound; this is enforced in debug builds and documents intent in release
/// builds.
class Poly1 {
 public:
  /// \brief The zero polynomial truncated at `max_degree`.
  explicit Poly1(int max_degree);

  /// \brief The constant polynomial `c` truncated at `max_degree`.
  static Poly1 Constant(int max_degree, double c);

  /// \brief The monomial `c * x^degree`; terms beyond the truncation bound
  /// yield the zero polynomial.
  static Poly1 Monomial(int max_degree, int degree, double c);

  /// \brief The affine polynomial `a + b*x` (the typical per-leaf factor
  /// `Pr(not t) + Pr(t) x` of a tuple-independent generating function).
  static Poly1 Affine(int max_degree, double a, double b);

  int max_degree() const { return max_degree_; }

  /// \brief Coefficient of x^i (0 for i outside [0, max_degree]).
  double Coeff(int i) const;

  /// \brief Sets the coefficient of x^i; out-of-range i is ignored
  /// (consistent with truncation semantics).
  void SetCoeff(int i, double c);

  /// \brief Largest i with a non-zero coefficient, or -1 for the zero
  /// polynomial.
  int Degree() const;

  /// \brief Sum of all stored coefficients, i.e. evaluation at x = 1.
  /// For a probability generating function this is the total retained mass.
  double SumCoeffs() const;

  /// \brief Evaluates the polynomial at `x` by Horner's rule.
  double Eval(double x) const;

  Poly1& operator+=(const Poly1& other);
  Poly1& operator-=(const Poly1& other);
  Poly1& operator*=(double scalar);
  Poly1& operator*=(const Poly1& other);

  friend Poly1 operator+(Poly1 a, const Poly1& b) { return a += b; }
  friend Poly1 operator-(Poly1 a, const Poly1& b) { return a -= b; }
  friend Poly1 operator*(Poly1 a, double s) { return a *= s; }
  friend Poly1 operator*(double s, Poly1 a) { return a *= s; }
  friend Poly1 operator*(const Poly1& a, const Poly1& b);

  /// \brief Adds `scale * other` into this polynomial.
  void AddScaled(const Poly1& other, double scale);

  /// \brief Adds the constant `c` to the degree-0 coefficient.
  void AddConstant(double c) { coeffs_[0] += c; }

  /// \brief All coefficients, indexed by degree; size is max_degree() + 1.
  const std::vector<double>& coeffs() const { return coeffs_; }

  /// \brief Human-readable form, e.g. "0.3 + 0.7 x^2".
  std::string ToString() const;

 private:
  int max_degree_;
  std::vector<double> coeffs_;  // coeffs_[i] is the coefficient of x^i
};

}  // namespace cpdb

#endif  // CPDB_ORACLE_POLY1_H_
