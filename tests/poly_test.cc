// Copyright 2026 The ConsensusDB Authors

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "oracle/poly2.h"
#include "oracle/poly1.h"
#include "poly/poly_arena.h"

namespace cpdb {
namespace {

TEST(Poly1Test, ConstructorsAndAccessors) {
  Poly1 zero(4);
  EXPECT_EQ(zero.Degree(), -1);
  EXPECT_EQ(zero.Coeff(0), 0.0);

  Poly1 c = Poly1::Constant(4, 2.5);
  EXPECT_EQ(c.Degree(), 0);
  EXPECT_EQ(c.Coeff(0), 2.5);

  Poly1 m = Poly1::Monomial(4, 3, -1.0);
  EXPECT_EQ(m.Degree(), 3);
  EXPECT_EQ(m.Coeff(3), -1.0);

  Poly1 a = Poly1::Affine(4, 0.4, 0.6);
  EXPECT_EQ(a.Coeff(0), 0.4);
  EXPECT_EQ(a.Coeff(1), 0.6);
}

TEST(Poly1Test, MonomialBeyondTruncationIsZero) {
  Poly1 m = Poly1::Monomial(2, 5, 1.0);
  EXPECT_EQ(m.Degree(), -1);
}

TEST(Poly1Test, OutOfRangeCoeffAccess) {
  Poly1 p = Poly1::Constant(3, 1.0);
  EXPECT_EQ(p.Coeff(-1), 0.0);
  EXPECT_EQ(p.Coeff(4), 0.0);
  p.SetCoeff(9, 1.0);  // silently ignored (truncation semantics)
  EXPECT_EQ(p.Coeff(9), 0.0);
}

TEST(Poly1Test, MultiplicationMatchesHandExpansion) {
  // (0.4 + 0.6x)(0.7 + 0.3x) = 0.28 + 0.54x + 0.18x^2
  Poly1 a = Poly1::Affine(3, 0.4, 0.6);
  Poly1 b = Poly1::Affine(3, 0.7, 0.3);
  Poly1 p = a * b;
  EXPECT_NEAR(p.Coeff(0), 0.28, 1e-12);
  EXPECT_NEAR(p.Coeff(1), 0.54, 1e-12);
  EXPECT_NEAR(p.Coeff(2), 0.18, 1e-12);
  EXPECT_EQ(p.Coeff(3), 0.0);
}

TEST(Poly1Test, MultiplicationTruncates) {
  Poly1 x = Poly1::Monomial(2, 1, 1.0);
  Poly1 p = x * x * x;  // x^3 truncated at degree 2
  EXPECT_EQ(p.Degree(), -1);
}

TEST(Poly1Test, ProbabilityMassConservation) {
  // A product of affine probability factors keeps total mass 1 when no
  // truncation occurs.
  Rng rng(3);
  Poly1 p = Poly1::Constant(16, 1.0);
  for (int i = 0; i < 16; ++i) {
    double q = rng.Uniform01();
    p *= Poly1::Affine(16, 1 - q, q);
  }
  EXPECT_NEAR(p.SumCoeffs(), 1.0, 1e-9);
  EXPECT_NEAR(p.Eval(1.0), 1.0, 1e-9);
}

TEST(Poly1Test, EvalMatchesHorner) {
  Poly1 p(3);
  p.SetCoeff(0, 1.0);
  p.SetCoeff(1, -2.0);
  p.SetCoeff(3, 4.0);
  EXPECT_NEAR(p.Eval(0.5), 1.0 - 1.0 + 4.0 * 0.125, 1e-12);
}

TEST(Poly1Test, AddScaledAndArithmetic) {
  Poly1 a = Poly1::Affine(2, 1.0, 2.0);
  Poly1 b = Poly1::Affine(2, 0.5, 0.5);
  a.AddScaled(b, 2.0);
  EXPECT_NEAR(a.Coeff(0), 2.0, 1e-12);
  EXPECT_NEAR(a.Coeff(1), 3.0, 1e-12);
  Poly1 d = a - b;
  EXPECT_NEAR(d.Coeff(0), 1.5, 1e-12);
  Poly1 s = 2.0 * b;
  EXPECT_NEAR(s.Coeff(1), 1.0, 1e-12);
}

TEST(Poly1Test, ToString) {
  Poly1 p(3);
  EXPECT_EQ(p.ToString(), "0");
  p.SetCoeff(0, 0.5);
  p.SetCoeff(2, 1.5);
  EXPECT_EQ(p.ToString(), "0.5 + 1.5 x^2");
}

TEST(Poly2Test, MonomialAndCoeff) {
  Poly2 m = Poly2::Monomial(3, 2, 1, 2, 4.0);
  EXPECT_EQ(m.Coeff(1, 2), 4.0);
  EXPECT_EQ(m.Coeff(0, 0), 0.0);
  EXPECT_EQ(m.Coeff(4, 0), 0.0);  // out of bounds
}

TEST(Poly2Test, MultiplicationMatchesHandExpansion) {
  // (1 + x)(1 + y) = 1 + x + y + xy
  Poly2 a = Poly2::Constant(2, 2, 1.0) + Poly2::Monomial(2, 2, 1, 0, 1.0);
  Poly2 b = Poly2::Constant(2, 2, 1.0) + Poly2::Monomial(2, 2, 0, 1, 1.0);
  Poly2 p = a * b;
  EXPECT_EQ(p.Coeff(0, 0), 1.0);
  EXPECT_EQ(p.Coeff(1, 0), 1.0);
  EXPECT_EQ(p.Coeff(0, 1), 1.0);
  EXPECT_EQ(p.Coeff(1, 1), 1.0);
  EXPECT_EQ(p.Coeff(2, 0), 0.0);
}

TEST(Poly2Test, TruncationPerVariable) {
  Poly2 x = Poly2::Monomial(1, 1, 1, 0, 1.0);
  Poly2 p = x * x;  // x^2 truncated (max_dx = 1)
  EXPECT_EQ(p.SumCoeffs(), 0.0);
}

TEST(Poly2Test, EvalAndSum) {
  Poly2 p(2, 1);
  p.SetCoeff(0, 0, 0.25);
  p.SetCoeff(2, 1, 0.75);
  EXPECT_NEAR(p.SumCoeffs(), 1.0, 1e-12);
  EXPECT_NEAR(p.Eval(2.0, 3.0), 0.25 + 0.75 * 4.0 * 3.0, 1e-12);
}

TEST(Poly2Test, AddScaled) {
  Poly2 a = Poly2::Constant(1, 1, 1.0);
  Poly2 b = Poly2::Monomial(1, 1, 1, 1, 2.0);
  a.AddScaled(b, 0.5);
  EXPECT_EQ(a.Coeff(1, 1), 1.0);
}

TEST(ConvolveKernelTest, BitwiseMatchesNaiveQuadLoopOnRandomOperands) {
  // The vectorized kernel behind Poly1/Poly2 operator* and the flat fold
  // must be bitwise identical to the textbook truncated-convolution quad
  // loop with per-element zero skips (the historical implementation),
  // including on operands with scattered exact zeros (which exercise the
  // row-granularity skip's ±0.0 argument).
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const int max_dx = static_cast<int>(rng.UniformInt(1, 7));
    const int max_dy = static_cast<int>(rng.UniformInt(0, 3));
    const int stride = max_dy + 1;
    const size_t len = static_cast<size_t>((max_dx + 1) * stride);
    std::vector<double> a(len), b(len);
    for (size_t i = 0; i < len; ++i) {
      a[i] = rng.Bernoulli(1.0 / 3) ? 0.0 : rng.Uniform(-0.5, 0.5);
      b[i] = rng.Bernoulli(1.0 / 3) ? 0.0 : rng.Uniform(-0.5, 0.5);
    }

    std::vector<double> naive(len, 0.0);
    for (int ia = 0; ia <= max_dx; ++ia) {
      for (int ja = 0; ja <= max_dy; ++ja) {
        const double ca = a[static_cast<size_t>(ia * stride + ja)];
        if (ca == 0.0) continue;
        for (int ib = 0; ib + ia <= max_dx; ++ib) {
          for (int jb = 0; jb + ja <= max_dy; ++jb) {
            const double cb = b[static_cast<size_t>(ib * stride + jb)];
            if (cb == 0.0) continue;
            naive[static_cast<size_t>((ia + ib) * stride + (ja + jb))] +=
                ca * cb;
          }
        }
      }
    }

    std::vector<double> got(len, 0.0);
    ConvolveRowsTruncated(a.data(), b.data(), got.data(), max_dx, max_dy);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(got[i], naive[i]) << "trial " << trial << " index " << i;
    }
  }
}

TEST(PolyArenaTest, ReserveGrowsOnlyAndKeepsGeometry) {
  PolyArena arena;
  arena.Reserve(4, 8);
  EXPECT_EQ(arena.num_slots(), 4);
  EXPECT_EQ(arena.row_len(), 8);
  const size_t big = arena.CapacityBytes();
  EXPECT_GE(big, 4 * 8 * sizeof(double));

  // Rows are distinct, writable storage.
  for (int s = 0; s < 4; ++s) arena.Row(s)[0] = static_cast<double>(s);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(arena.Row(s)[0], s);

  // Shrinking the geometry must not shrink the allocation (steady-state
  // reuse), and growing past the high-water must grow it.
  arena.Reserve(1, 2);
  EXPECT_EQ(arena.num_slots(), 1);
  EXPECT_GE(arena.CapacityBytes(), big);
  arena.Reserve(16, 32);
  EXPECT_GE(arena.CapacityBytes(), 16 * 32 * sizeof(double));
}

}  // namespace
}  // namespace cpdb
