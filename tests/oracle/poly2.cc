// Copyright 2026 The ConsensusDB Authors

#include "oracle/poly2.h"

#include "poly/poly_arena.h"

#include <cassert>
#include <sstream>

namespace cpdb {

Poly2::Poly2(int max_dx, int max_dy) : max_dx_(max_dx), max_dy_(max_dy) {
  assert(max_dx >= 0 && max_dy >= 0);
  coeffs_.assign(static_cast<size_t>(max_dx + 1) * static_cast<size_t>(max_dy + 1),
                 0.0);
}

Poly2 Poly2::Constant(int max_dx, int max_dy, double c) {
  Poly2 p(max_dx, max_dy);
  p.coeffs_[0] = c;
  return p;
}

Poly2 Poly2::Monomial(int max_dx, int max_dy, int i, int j, double c) {
  Poly2 p(max_dx, max_dy);
  if (i >= 0 && i <= max_dx && j >= 0 && j <= max_dy) p.coeffs_[p.Index(i, j)] = c;
  return p;
}

double Poly2::Coeff(int i, int j) const {
  if (i < 0 || i > max_dx_ || j < 0 || j > max_dy_) return 0.0;
  return coeffs_[Index(i, j)];
}

void Poly2::SetCoeff(int i, int j, double c) {
  if (i < 0 || i > max_dx_ || j < 0 || j > max_dy_) return;
  coeffs_[Index(i, j)] = c;
}

double Poly2::Eval(double x, double y) const {
  // Horner in x of Horner-in-y row evaluations.
  double acc = 0.0;
  for (int i = max_dx_; i >= 0; --i) {
    double row = 0.0;
    for (int j = max_dy_; j >= 0; --j) row = row * y + coeffs_[Index(i, j)];
    acc = acc * x + row;
  }
  return acc;
}

double Poly2::SumCoeffs() const {
  double s = 0.0;
  for (double c : coeffs_) s += c;
  return s;
}

Poly2& Poly2::operator+=(const Poly2& other) {
  assert(max_dx_ == other.max_dx_ && max_dy_ == other.max_dy_);
  for (size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] += other.coeffs_[i];
  return *this;
}

Poly2& Poly2::operator*=(double scalar) {
  for (double& c : coeffs_) c *= scalar;
  return *this;
}

Poly2 operator*(const Poly2& a, const Poly2& b) {
  assert(a.max_dx_ == b.max_dx_ && a.max_dy_ == b.max_dy_);
  Poly2 out(a.max_dx_, a.max_dy_);
  // Shared vectorized kernel over the row-major coefficient layout. Bitwise
  // identical to the historical quad loop: same nonzero terms accumulated
  // into each cell in the same (ia, ja) order; the relaxed zero-skip only
  // admits ±0.0 terms, which cannot move a bit of a zero-initialized
  // accumulator (see poly/poly_arena.h).
  ConvolveRowsTruncated(a.coeffs_.data(), b.coeffs_.data(), out.coeffs_.data(),
                        a.max_dx_, a.max_dy_);
  return out;
}

void Poly2::AddScaled(const Poly2& other, double scale) {
  assert(max_dx_ == other.max_dx_ && max_dy_ == other.max_dy_);
  for (size_t i = 0; i < coeffs_.size(); ++i) coeffs_[i] += scale * other.coeffs_[i];
}

std::string Poly2::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (int i = 0; i <= max_dx_; ++i) {
    for (int j = 0; j <= max_dy_; ++j) {
      double c = coeffs_[Index(i, j)];
      if (c == 0.0) continue;
      if (!first) os << " + ";
      os << c;
      if (i == 1) os << " x";
      if (i > 1) os << " x^" << i;
      if (j == 1) os << " y";
      if (j > 1) os << " y^" << j;
      first = false;
    }
  }
  if (first) os << "0";
  return os.str();
}

}  // namespace cpdb
