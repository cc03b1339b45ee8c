// Copyright 2026 The ConsensusDB Authors

#include "oracle/poly1.h"

#include "poly/poly_arena.h"

#include <cassert>
#include <cmath>
#include <sstream>

namespace cpdb {

Poly1::Poly1(int max_degree) : max_degree_(max_degree) {
  assert(max_degree >= 0);
  coeffs_.assign(static_cast<size_t>(max_degree) + 1, 0.0);
}

Poly1 Poly1::Constant(int max_degree, double c) {
  Poly1 p(max_degree);
  p.coeffs_[0] = c;
  return p;
}

Poly1 Poly1::Monomial(int max_degree, int degree, double c) {
  Poly1 p(max_degree);
  if (degree >= 0 && degree <= max_degree) p.coeffs_[static_cast<size_t>(degree)] = c;
  return p;
}

Poly1 Poly1::Affine(int max_degree, double a, double b) {
  Poly1 p(max_degree);
  p.coeffs_[0] = a;
  if (max_degree >= 1) p.coeffs_[1] = b;
  return p;
}

double Poly1::Coeff(int i) const {
  if (i < 0 || i > max_degree_) return 0.0;
  return coeffs_[static_cast<size_t>(i)];
}

void Poly1::SetCoeff(int i, double c) {
  if (i < 0 || i > max_degree_) return;
  coeffs_[static_cast<size_t>(i)] = c;
}

int Poly1::Degree() const {
  for (int i = max_degree_; i >= 0; --i) {
    if (coeffs_[static_cast<size_t>(i)] != 0.0) return i;
  }
  return -1;
}

double Poly1::SumCoeffs() const {
  double s = 0.0;
  for (double c : coeffs_) s += c;
  return s;
}

double Poly1::Eval(double x) const {
  double acc = 0.0;
  for (int i = max_degree_; i >= 0; --i) acc = acc * x + coeffs_[static_cast<size_t>(i)];
  return acc;
}

Poly1& Poly1::operator+=(const Poly1& other) {
  assert(max_degree_ == other.max_degree_);
  for (size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] += other.coeffs_[i];
  return *this;
}

Poly1& Poly1::operator-=(const Poly1& other) {
  assert(max_degree_ == other.max_degree_);
  for (size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] -= other.coeffs_[i];
  return *this;
}

Poly1& Poly1::operator*=(double scalar) {
  for (double& c : coeffs_) c *= scalar;
  return *this;
}

Poly1 operator*(const Poly1& a, const Poly1& b) {
  assert(a.max_degree_ == b.max_degree_);
  Poly1 out(a.max_degree_);
  // Shared vectorized kernel (Poly1 is the max_dy == 0 case). Bitwise
  // identical to the historical degree-bounded loop: the kernel visits the
  // same nonzero terms in the same order and only admits extra ±0.0 terms,
  // which cannot move a bit of a zero-initialized accumulator (see
  // poly/poly_arena.h).
  ConvolveRowsTruncated(a.coeffs_.data(), b.coeffs_.data(), out.coeffs_.data(),
                        a.max_degree_, 0);
  return out;
}

Poly1& Poly1::operator*=(const Poly1& other) {
  *this = *this * other;
  return *this;
}

void Poly1::AddScaled(const Poly1& other, double scale) {
  assert(max_degree_ == other.max_degree_);
  for (size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] += scale * other.coeffs_[i];
}

std::string Poly1::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (int i = 0; i <= max_degree_; ++i) {
    double c = coeffs_[static_cast<size_t>(i)];
    if (c == 0.0) continue;
    if (!first) os << " + ";
    os << c;
    if (i == 1) os << " x";
    if (i > 1) os << " x^" << i;
    first = false;
  }
  if (first) os << "0";
  return os.str();
}

}  // namespace cpdb
