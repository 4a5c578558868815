#include "rpm/core/mining_params.h"

#include <limits>

#include <gtest/gtest.h>

namespace rpm {
namespace {

TEST(RpParamsTest, DefaultsValidate) {
  EXPECT_TRUE(RpParams{}.Validate().ok());
}

TEST(RpParamsTest, RejectsNonPositivePeriod) {
  RpParams p;
  p.period = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  p.period = -5;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(RpParamsTest, RejectsZeroMinPs) {
  RpParams p;
  p.min_ps = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(RpParamsTest, RejectsZeroMinRec) {
  RpParams p;
  p.min_rec = 0;
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
}

TEST(RpParamsTest, MinSupportIsTheProductAndSaturates) {
  RpParams p;
  p.min_ps = 100;
  p.min_rec = 3;
  EXPECT_EQ(MinSupport(p), 300u);
  p.min_ps = uint64_t{1} << 63;
  p.min_rec = 2;  // The plain product wraps to 0.
  EXPECT_EQ(MinSupport(p), std::numeric_limits<uint64_t>::max());
  p.min_rec = 1;
  EXPECT_EQ(MinSupport(p), uint64_t{1} << 63);
}

TEST(RpParamsTest, ToStringListsThresholds) {
  RpParams p;
  p.period = 360;
  p.min_ps = 100;
  p.min_rec = 2;
  EXPECT_EQ(p.ToString(), "per=360, minPS=100, minRec=2");
  p.max_gap_violations = 3;
  EXPECT_EQ(p.ToString(), "per=360, minPS=100, minRec=2, maxViolations=3");
}

TEST(MakeParamsWithMinPsFractionTest, PaperTable4Values) {
  // minPS = 0.1% of |TDB| = 100,000 -> 100 (the T10I4D100K row).
  Result<RpParams> p = MakeParamsWithMinPsFraction(360, 0.001, 2, 100000);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->min_ps, 100u);
  EXPECT_EQ(p->period, 360);
  EXPECT_EQ(p->min_rec, 2u);
}

TEST(MakeParamsWithMinPsFractionTest, TwitterTwoPercent) {
  // 2% of 177,120 = 3542.4 -> ceil 3543.
  Result<RpParams> p = MakeParamsWithMinPsFraction(1440, 0.02, 1, 177120);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->min_ps, 3543u);
}

TEST(MakeParamsWithMinPsFractionTest, ClampsToAtLeastOne) {
  Result<RpParams> p = MakeParamsWithMinPsFraction(10, 0.0, 1, 100);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->min_ps, 1u);
}

TEST(MakeParamsWithMinPsFractionTest, RejectsOutOfRangeFraction) {
  EXPECT_FALSE(MakeParamsWithMinPsFraction(10, -0.1, 1, 100).ok());
  EXPECT_FALSE(MakeParamsWithMinPsFraction(10, 1.5, 1, 100).ok());
}

TEST(MakeParamsWithMinPsFractionTest, PropagatesValidation) {
  EXPECT_FALSE(MakeParamsWithMinPsFraction(0, 0.1, 1, 100).ok());
  EXPECT_FALSE(MakeParamsWithMinPsFraction(10, 0.1, 0, 100).ok());
}

}  // namespace
}  // namespace rpm
