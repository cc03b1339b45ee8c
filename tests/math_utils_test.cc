// Copyright 2026 The ConsensusDB Authors

#include "common/math_utils.h"

#include <gtest/gtest.h>

#include <vector>

#include "oracle/references.h"

namespace cpdb {
namespace {

TEST(MathUtilsTest, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(HarmonicNumber(0), 0.0);
  EXPECT_DOUBLE_EQ(HarmonicNumber(1), 1.0);
  EXPECT_DOUBLE_EQ(HarmonicNumber(2), 1.5);
  EXPECT_NEAR(HarmonicNumber(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(MathUtilsTest, MaxPlusConvolveBasic) {
  std::vector<double> a = {0.0, 1.0};      // size 0 value 0, size 1 value 1
  std::vector<double> b = {0.0, 5.0, 2.0};
  std::vector<double> out(4);
  MaxPlusConvolveInto(a.data(), a.size(), b.data(), b.size(), out.data(),
                      out.size());
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 5.0);  // max(0+5, 1+0)
  EXPECT_DOUBLE_EQ(out[2], 6.0);  // 1+5
  EXPECT_DOUBLE_EQ(out[3], 3.0);  // 1+2
}

TEST(MathUtilsTest, MaxPlusConvolveRespectsInfeasible) {
  std::vector<double> a = {0.0, kNegInf, 2.0};
  std::vector<double> b = {kNegInf, 1.0};
  std::vector<double> out(4);
  MaxPlusConvolveInto(a.data(), a.size(), b.data(), b.size(), out.data(),
                      out.size());
  EXPECT_EQ(out[0], kNegInf);        // needs b[0]
  EXPECT_DOUBLE_EQ(out[1], 1.0);     // a[0]+b[1]
  EXPECT_EQ(out[2], kNegInf);        // a[1] infeasible, b[0] infeasible
  EXPECT_DOUBLE_EQ(out[3], 3.0);     // a[2]+b[1]
}

TEST(MathUtilsTest, MaxPlusConvolveTruncates) {
  // Sizes up to 4 are reachable; a 3-entry output keeps sizes 0..2 and
  // never writes past its end.
  std::vector<double> a = {0.0, 1.0, 2.0};
  std::vector<double> b = {0.0, 1.0, 2.0};
  std::vector<double> out = {7.0, 7.0, 7.0, 7.0};
  MaxPlusConvolveInto(a.data(), a.size(), b.data(), b.size(), out.data(), 3);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
  EXPECT_DOUBLE_EQ(out[3], 7.0);  // untouched
}

}  // namespace
}  // namespace cpdb
