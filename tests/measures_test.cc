#include "rpm/core/measures.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "rpm/common/random.h"
#include "rpm/core/time_gap.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::G;
using ::rpm::testing::PaperExampleDb;

// TS^{ab} from Example 2.
const TimestampList kTsAb = {1, 3, 4, 7, 11, 12, 14};

TEST(InterArrivalTimesTest, Example4) {
  // IAT^{ab} = {2, 1, 3, 4, 1, 2}.
  EXPECT_EQ(InterArrivalTimes(kTsAb),
            (std::vector<Timestamp>{2, 1, 3, 4, 1, 2}));
}

TEST(InterArrivalTimesTest, ShortLists) {
  EXPECT_TRUE(InterArrivalTimes({}).empty());
  EXPECT_TRUE(InterArrivalTimes({5}).empty());
  EXPECT_EQ(InterArrivalTimes({5, 9}), (std::vector<Timestamp>{4}));
}

TEST(DecomposeTest, Example5AllMaximalIntervals) {
  // per=2: TS^{ab}_1={1,3,4}, TS^{ab}_2={7}, TS^{ab}_3={11,12,14};
  // periodic-intervals [1,4], [7,7], [11,14].
  auto pis = DecomposePeriodicIntervals(kTsAb, 2);
  ASSERT_EQ(pis.size(), 3u);
  EXPECT_EQ(pis[0], (PeriodicInterval{1, 4, 3}));
  EXPECT_EQ(pis[1], (PeriodicInterval{7, 7, 1}));
  EXPECT_EQ(pis[2], (PeriodicInterval{11, 14, 3}));
}

TEST(DecomposeTest, Example6PeriodicSupports) {
  auto pis = DecomposePeriodicIntervals(kTsAb, 2);
  // ps^{ab}_1 = 3, ps^{ab}_2 = 1, ps^{ab}_3 = 3.
  EXPECT_EQ(pis[0].periodic_support, 3u);
  EXPECT_EQ(pis[1].periodic_support, 1u);
  EXPECT_EQ(pis[2].periodic_support, 3u);
}

TEST(DecomposeTest, SingleTimestamp) {
  auto pis = DecomposePeriodicIntervals({42}, 5);
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0], (PeriodicInterval{42, 42, 1}));
}

TEST(DecomposeTest, EmptyList) {
  EXPECT_TRUE(DecomposePeriodicIntervals({}, 3).empty());
}

TEST(DecomposeTest, AllOneRunWhenPeriodLarge) {
  auto pis = DecomposePeriodicIntervals(kTsAb, 100);
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0], (PeriodicInterval{1, 14, 7}));
}

TEST(DecomposeTest, AllSingletonsWhenPeriodTiny) {
  auto pis = DecomposePeriodicIntervals({10, 20, 30}, 1);
  ASSERT_EQ(pis.size(), 3u);
  for (const auto& pi : pis) EXPECT_EQ(pi.periodic_support, 1u);
}

TEST(DecomposeTest, SupportsAreConserved) {
  auto pis = DecomposePeriodicIntervals(kTsAb, 2);
  uint64_t total = 0;
  for (const auto& pi : pis) total += pi.periodic_support;
  EXPECT_EQ(total, kTsAb.size());
}

TEST(SelectInterestingTest, Example7) {
  // minPS=3 keeps [1,4] and [11,14], drops [7,7].
  auto interesting =
      SelectInterestingIntervals(DecomposePeriodicIntervals(kTsAb, 2), 3);
  ASSERT_EQ(interesting.size(), 2u);
  EXPECT_EQ(interesting[0], (PeriodicInterval{1, 4, 3}));
  EXPECT_EQ(interesting[1], (PeriodicInterval{11, 14, 3}));
}

TEST(FindInterestingTest, MatchesDecomposePlusSelect) {
  for (Timestamp per : {1, 2, 3, 5, 10}) {
    for (uint64_t min_ps : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(FindInterestingIntervals(kTsAb, per, min_ps),
                SelectInterestingIntervals(
                    DecomposePeriodicIntervals(kTsAb, per), min_ps))
          << "per=" << per << " minPS=" << min_ps;
    }
  }
}

TEST(RecurrenceTest, Example8) {
  // Rec(ab) = |{[1,4], [11,14]}| = 2.
  EXPECT_EQ(ComputeRecurrence(kTsAb, 2, 3), 2u);
}

TEST(RecurrenceTest, PatternCNotRecurring) {
  // Example 10: TS^c has one long interval [2,12] at per=2 -> Rec=1.
  TimestampList ts_c = PaperExampleDb().TimestampsOf({rpm::testing::C});
  auto ipi = FindInterestingIntervals(ts_c, 2, 3);
  ASSERT_EQ(ipi.size(), 1u);
  EXPECT_EQ(ipi[0], (PeriodicInterval{2, 12, 7}));
}

TEST(ErecTest, Example11ItemG) {
  // TS^g={1,5,6,7,12,14}; per=2, minPS=3:
  // runs {1}, {5,6,7}, {12,14} -> floor(1/3)+floor(3/3)+floor(2/3) = 1.
  TimestampList ts_g = PaperExampleDb().TimestampsOf({G});
  EXPECT_EQ(ts_g, (TimestampList{1, 5, 6, 7, 12, 14}));
  EXPECT_EQ(ComputeErec(ts_g, 2, 3), 1u);
}

TEST(ErecTest, AbHasErecTwo) {
  EXPECT_EQ(ComputeErec(kTsAb, 2, 3), 2u);
}

TEST(ErecTest, EmptyAndSingle) {
  EXPECT_EQ(ComputeErec({}, 2, 3), 0u);
  EXPECT_EQ(ComputeErec({7}, 2, 3), 0u);
  EXPECT_EQ(ComputeErec({7}, 2, 1), 1u);
}

TEST(ErecTest, MatchesDecompositionSum) {
  for (Timestamp per : {1, 2, 4}) {
    for (uint64_t min_ps : {1u, 2u, 3u}) {
      uint64_t expected = 0;
      for (const auto& pi : DecomposePeriodicIntervals(kTsAb, per)) {
        expected += pi.periodic_support / min_ps;
      }
      EXPECT_EQ(ComputeErec(kTsAb, per, min_ps), expected);
    }
  }
}

// Property 1: Erec(X) >= Rec(X), on every pattern of the running example.
TEST(ErecTest, Property1ErecUpperBoundsRecurrence) {
  TransactionDatabase db = PaperExampleDb();
  for (ItemId i = 0; i < 7; ++i) {
    for (ItemId j = i; j < 7; ++j) {
      Itemset pattern = i == j ? Itemset{i} : Itemset{i, j};
      TimestampList ts = db.TimestampsOf(pattern);
      for (Timestamp per : {1, 2, 3}) {
        for (uint64_t min_ps : {1u, 2u, 3u}) {
          EXPECT_GE(ComputeErec(ts, per, min_ps),
                    ComputeRecurrence(ts, per, min_ps));
        }
      }
    }
  }
}

// Property 2: X subset of Y implies Erec(X) >= Erec(Y).
TEST(ErecTest, Property2AntiMonotone) {
  TransactionDatabase db = PaperExampleDb();
  for (ItemId i = 0; i < 7; ++i) {
    TimestampList ts_i = db.TimestampsOf({i});
    for (ItemId j = 0; j < 7; ++j) {
      if (i == j) continue;
      Itemset pair = {std::min(i, j), std::max(i, j)};
      TimestampList ts_ij = db.TimestampsOf(pair);
      for (Timestamp per : {1, 2, 3}) {
        for (uint64_t min_ps : {1u, 2u, 3u}) {
          EXPECT_GE(ComputeErec(ts_i, per, min_ps),
                    ComputeErec(ts_ij, per, min_ps))
              << "i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(TolerantTest, ZeroViolationsMatchesExactModel) {
  EXPECT_EQ(FindInterestingIntervalsTolerant(kTsAb, 2, 3, 0),
            FindInterestingIntervals(kTsAb, 2, 3));
}

TEST(TolerantTest, OneViolationBridgesGaps) {
  // ts {1,2,3, 10, 11,12}: per=2 splits at gap 7. With one violation the
  // whole list is a single interval of ps 6.
  TimestampList ts = {1, 2, 3, 10, 11, 12};
  auto strict = FindInterestingIntervalsTolerant(ts, 2, 3, 0);
  ASSERT_EQ(strict.size(), 2u);
  auto tolerant = FindInterestingIntervalsTolerant(ts, 2, 3, 1);
  ASSERT_EQ(tolerant.size(), 1u);
  EXPECT_EQ(tolerant[0], (PeriodicInterval{1, 12, 6}));
}

TEST(TolerantTest, ViolationBudgetResetsPerInterval) {
  // Two over-period gaps: with budget 1 the second one splits.
  TimestampList ts = {1, 2, 10, 11, 20, 21};
  auto tolerant = FindInterestingIntervalsTolerant(ts, 2, 2, 1);
  // First interval absorbs gap 8 ({1,2,10,11}, ps=4), then gap 9 splits.
  ASSERT_EQ(tolerant.size(), 2u);
  EXPECT_EQ(tolerant[0], (PeriodicInterval{1, 11, 4}));
  EXPECT_EQ(tolerant[1], (PeriodicInterval{20, 21, 2}));
}

TEST(TolerantTest, SupportBoundIsValid) {
  // floor(sup/minPS) >= tolerant recurrence, for assorted budgets.
  for (uint32_t budget : {0u, 1u, 2u, 5u}) {
    for (uint64_t min_ps : {1u, 2u, 3u}) {
      auto ipi = FindInterestingIntervalsTolerant(kTsAb, 2, min_ps, budget);
      EXPECT_GE(ComputeTolerantRecurrenceBound(kTsAb.size(), min_ps),
                ipi.size());
    }
  }
}

TEST(FusedGateTest, MatchesSeparateGateAndScanOnPaperExample) {
  // For every item list of the running example and a threshold grid, the
  // fused single pass must agree with the two-pass formulation it fused:
  // bound == ComputeRecurrenceUpperBound, and the intervals equal
  // FindInterestingIntervals exactly when the gate passes.
  TransactionDatabase db = PaperExampleDb();
  std::vector<PeriodicInterval> fused;
  for (ItemId item = 0; item < db.ItemUniverseSize(); ++item) {
    TimestampList ts = db.TimestampsOf({item});
    for (Timestamp per : {1, 2, 3, 5, 20}) {
      for (uint64_t min_ps : {1u, 2u, 3u, 6u}) {
        for (uint64_t min_rec : {1u, 2u, 3u}) {
          RpParams params;
          params.period = per;
          params.min_ps = min_ps;
          params.min_rec = min_rec;
          GateOutcome outcome = ComputeGateAndIntervals(ts, params, &fused);
          EXPECT_EQ(outcome.recurrence_upper_bound,
                    ComputeRecurrenceUpperBound(ts, params));
          EXPECT_EQ(outcome.passes,
                    outcome.recurrence_upper_bound >= min_rec);
          if (outcome.passes) {
            EXPECT_EQ(fused, FindInterestingIntervals(ts, params));
          } else {
            EXPECT_TRUE(fused.empty());
          }
        }
      }
    }
  }
}

TEST(FusedGateTest, MatchesSeparateGateAndScanUnderTolerance) {
  TimestampList ts = {1, 2, 3, 10, 11, 12, 30, 31, 40};
  std::vector<PeriodicInterval> fused;
  for (uint32_t budget : {0u, 1u, 3u}) {
    for (uint64_t min_rec : {1u, 2u, 5u}) {
      RpParams params;
      params.period = 2;
      params.min_ps = 3;
      params.min_rec = min_rec;
      params.max_gap_violations = budget;
      GateOutcome outcome = ComputeGateAndIntervals(ts, params, &fused);
      // budget == 0 dispatches to the exact Erec model; otherwise the
      // O(1) tolerant support quotient applies.
      EXPECT_EQ(outcome.recurrence_upper_bound,
                ComputeRecurrenceUpperBound(ts, params));
      if (budget > 0) {
        EXPECT_EQ(outcome.recurrence_upper_bound,
                  ComputeTolerantRecurrenceBound(ts.size(), params.min_ps));
      }
      if (outcome.passes) {
        EXPECT_EQ(fused, FindInterestingIntervals(ts, params));
      } else {
        EXPECT_TRUE(fused.empty());
      }
    }
  }
}

TEST(FusedGateTest, EmptyAndSingletonLists) {
  RpParams params;
  params.period = 2;
  params.min_ps = 1;
  params.min_rec = 1;
  std::vector<PeriodicInterval> fused = {{1, 2, 3}};  // Must be cleared.
  GateOutcome outcome = ComputeGateAndIntervals({}, params, &fused);
  EXPECT_EQ(outcome.recurrence_upper_bound, 0u);
  EXPECT_FALSE(outcome.passes);
  EXPECT_TRUE(fused.empty());

  outcome = ComputeGateAndIntervals({5}, params, &fused);
  EXPECT_EQ(outcome.recurrence_upper_bound, 1u);
  EXPECT_TRUE(outcome.passes);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0], (PeriodicInterval{5, 5, 1}));
}

TEST(ParamsDispatchTest, UsesTolerantPathWhenConfigured) {
  RpParams params;
  params.period = 2;
  params.min_ps = 3;
  params.min_rec = 1;
  params.max_gap_violations = 1;
  TimestampList ts = {1, 2, 3, 10, 11, 12};
  EXPECT_EQ(FindInterestingIntervals(ts, params).size(), 1u);
  EXPECT_EQ(ComputeRecurrenceUpperBound(ts, params), 2u);  // floor(6/3).
  params.max_gap_violations = 0;
  EXPECT_EQ(FindInterestingIntervals(ts, params).size(), 2u);
  EXPECT_EQ(ComputeRecurrenceUpperBound(ts, params), 2u);  // Erec.
}

// --- Overflow safety at the int64 boundaries -------------------------------
//
// Regression tests for the gap arithmetic `cur - prev`: with timestamps
// straddling the int64 range the signed subtraction overflowed (UB; in
// practice it wrapped negative, fusing runs that are astronomically far
// apart). All gap comparisons now go through the unsigned helpers in
// time_gap.h, which are exact for any ordered timestamp pair.

constexpr Timestamp kTsMax = std::numeric_limits<Timestamp>::max();
constexpr Timestamp kTsMin = std::numeric_limits<Timestamp>::min();

TEST(OverflowSafetyTest, StraddlingGapSplitsRuns) {
  // The true gap kTsMin -> kTsMax is 2^64 - 1, far above any period; the
  // wrapped signed difference is -1, which compared <= period.
  TimestampList ts = {kTsMin, kTsMax};
  std::vector<PeriodicInterval> intervals =
      DecomposePeriodicIntervals(ts, /*period=*/10);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (PeriodicInterval{kTsMin, kTsMin, 1}));
  EXPECT_EQ(intervals[1], (PeriodicInterval{kTsMax, kTsMax, 1}));
  EXPECT_EQ(ComputeErec(ts, 10, 1), 2u);
  EXPECT_EQ(ComputeRecurrence(ts, 10, 1), 2u);
}

TEST(OverflowSafetyTest, RunsAdjacentToBothBoundaries) {
  TimestampList ts = {kTsMin,     kTsMin + 1, kTsMin + 2,
                      kTsMax - 2, kTsMax - 1, kTsMax};
  std::vector<PeriodicInterval> intervals =
      FindInterestingIntervals(ts, /*period=*/1, /*min_ps=*/3);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (PeriodicInterval{kTsMin, kTsMin + 2, 3}));
  EXPECT_EQ(intervals[1], (PeriodicInterval{kTsMax - 2, kTsMax, 3}));
  EXPECT_EQ(ComputeErec(ts, 1, 3), 2u);
}

TEST(OverflowSafetyTest, HugePeriodStillRejectsStraddlingGap) {
  // period = INT64_MAX admits the gap 0 -> kTsMax (2^63 - 1) but not the
  // gap kTsMin -> 0 (2^63).
  TimestampList ts = {kTsMin, 0, kTsMax};
  std::vector<PeriodicInterval> intervals =
      DecomposePeriodicIntervals(ts, kTsMax);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (PeriodicInterval{kTsMin, kTsMin, 1}));
  EXPECT_EQ(intervals[1], (PeriodicInterval{0, kTsMax, 2}));
}

TEST(OverflowSafetyTest, InterArrivalTimesSaturateInsteadOfWrapping) {
  // IAT entries are reported as int64 Timestamps; a gap wider than the
  // type saturates to INT64_MAX rather than wrapping negative.
  std::vector<Timestamp> iat = InterArrivalTimes({kTsMin, kTsMax});
  ASSERT_EQ(iat.size(), 1u);
  EXPECT_EQ(iat[0], kTsMax);
  // A representable extreme gap stays exact.
  EXPECT_EQ(InterArrivalTimes({-2, kTsMax - 2}),
            (std::vector<Timestamp>{kTsMax}));
}

TEST(OverflowSafetyTest, FusedGateMatchesAtBoundaries) {
  RpParams params;
  params.period = 2;
  params.min_ps = 2;
  params.min_rec = 2;
  TimestampList ts = {kTsMin, kTsMin + 2, kTsMax - 1, kTsMax};
  std::vector<PeriodicInterval> fused;
  GateOutcome outcome = ComputeGateAndIntervals(ts, params, &fused);
  EXPECT_EQ(outcome.recurrence_upper_bound, 2u);
  EXPECT_TRUE(outcome.passes);
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_EQ(fused[0], (PeriodicInterval{kTsMin, kTsMin + 2, 2}));
  EXPECT_EQ(fused[1], (PeriodicInterval{kTsMax - 1, kTsMax, 2}));
}

TEST(OverflowSafetyTest, TolerantModeAbsorbsStraddlingGap) {
  // With one violation allowed the 2^64-wide gap is absorbed like any
  // other over-period gap — it must count as exactly one violation, not
  // sneak in as a compliant (wrapped-negative) gap.
  TimestampList ts = {kTsMin, kTsMin + 1, kTsMax - 1, kTsMax};
  std::vector<PeriodicInterval> exact =
      FindInterestingIntervalsTolerant(ts, /*period=*/1, /*min_ps=*/2,
                                       /*max_violations=*/0);
  ASSERT_EQ(exact.size(), 2u);
  std::vector<PeriodicInterval> tolerant =
      FindInterestingIntervalsTolerant(ts, /*period=*/1, /*min_ps=*/2,
                                       /*max_violations=*/1);
  ASSERT_EQ(tolerant.size(), 1u);
  EXPECT_EQ(tolerant[0], (PeriodicInterval{kTsMin, kTsMax, 4}));
}

// The columnar gate: the break-mask kernel against a reference built from
// the scalar gap helper, and the masked ComputeGateAndIntervals /
// ComputeRecurrenceUpperBound overloads against the fused scalar loops on
// randomized and adversarial inputs.

/// Sorted ascending list of `n` timestamps with gaps drawn around
/// `period` so break bits are a real mix (not all-zero / all-one).
/// Duplicates allowed when `dupes` is set (a zero gap is never a break).
TimestampList RandomSortedList(Rng* rng, size_t n, uint64_t period,
                               bool dupes) {
  TimestampList ts;
  ts.reserve(n);
  Timestamp cur = static_cast<Timestamp>(rng->NextInt64(-1000000, 1000000));
  for (size_t i = 0; i < n; ++i) {
    ts.push_back(cur);
    uint64_t gap = rng->NextUint64(2 * period + 2);
    if (!dupes && gap == 0) gap = 1;
    cur = static_cast<Timestamp>(static_cast<uint64_t>(cur) + gap);
  }
  return ts;
}

/// Runs ComputeBreakMasks into a poisoned buffer (so unwritten words and
/// stale trailing bits get caught) and compares it bit for bit with a
/// reference built straight from the scalar gap helper.
void ExpectMasksMatchReference(const TimestampList& ts, uint64_t period) {
  ASSERT_GE(ts.size(), 2u);
  std::vector<uint64_t> want(TsBlockWords(ts.size()), 0);
  for (size_t g = 0; g + 1 < ts.size(); ++g) {
    if (TimestampGap(ts[g], ts[g + 1]) > period) {
      want[g >> 6] |= uint64_t{1} << (g & 63);
    }
  }
  std::vector<uint64_t> got(want.size(), ~uint64_t{0});
  ComputeBreakMasks(ts.data(), ts.size(), period, got.data());
  EXPECT_EQ(got, want) << "n=" << ts.size() << " period=" << period;
}

TEST(TsBlockTest, WordArithmetic) {
  EXPECT_EQ(TsBlockWords(0), 0u);
  EXPECT_EQ(TsBlockWords(1), 0u);
  EXPECT_EQ(TsBlockWords(2), 1u);
  EXPECT_EQ(TsBlockWords(65), 1u);   // 64 gaps.
  EXPECT_EQ(TsBlockWords(66), 2u);   // 65 gaps.
  EXPECT_EQ(TsBlockWords(129), 2u);  // 128 gaps.
  EXPECT_EQ(TsBlockWords(130), 3u);
}

TEST(TsBlockTest, BreakMasksMatchScalarOnRandomLists) {
  Rng rng(20260808);
  // Lengths straddle the mask-word edges (63/64/65 gaps and multiples).
  const size_t lengths[] = {2,  3,  4,  5,  7,  8,   9,   31,  32, 33,
                            63, 64, 65, 66, 96, 127, 128, 129, 257};
  const uint64_t periods[] = {1, 2, 3, 7, 100};
  for (size_t n : lengths) {
    for (uint64_t period : periods) {
      for (bool dupes : {false, true}) {
        ExpectMasksMatchReference(RandomSortedList(&rng, n, period, dupes),
                                  period);
      }
    }
    // Gaps drawn from [1, 8) against period 256: a 64-gap word spans
    // about 256, so some words are settled by their span and some not.
    ExpectMasksMatchReference(RandomSortedList(&rng, n, 3, false), 256);
  }
}

TEST(TsBlockTest, BreakMasksAdversarialExtremes) {
  // Timestamps straddling most of the int64 range: the gaps overflow
  // int64 and must still compare correctly as u64.
  const TimestampList straddle = {kTsMin,     kTsMin + 1, -2,     0, 1,
                                  kTsMax - 3, kTsMax - 1, kTsMax};
  for (uint64_t period :
       {uint64_t{1}, uint64_t{1000}, static_cast<uint64_t>(kTsMax)}) {
    ExpectMasksMatchReference(straddle, period);
  }
  std::vector<uint64_t> masks(TsBlockWords(straddle.size()), ~uint64_t{0});
  ComputeBreakMasks(straddle.data(), straddle.size(), 1000, masks.data());
  // Gaps 1, huge, 2, 1, huge, 2, 1: breaks at gaps 1 and 4 only.
  EXPECT_EQ(masks[0], (uint64_t{1} << 1) | (uint64_t{1} << 4));
  // All gaps equal the period exactly: <= is not <, so no breaks.
  TimestampList exact;
  for (int i = 0; i < 130; ++i) exact.push_back(static_cast<Timestamp>(7 * i));
  ExpectMasksMatchReference(exact, 7);
  masks.assign(TsBlockWords(exact.size()), ~uint64_t{0});
  ComputeBreakMasks(exact.data(), exact.size(), 7, masks.data());
  for (uint64_t word : masks) EXPECT_EQ(word, 0u);
  // Gaps of period + 1 everywhere: every gap breaks, and the bits past
  // the last gap must still be zero.
  TimestampList broken;
  for (int i = 0; i < 100; ++i) broken.push_back(static_cast<Timestamp>(8 * i));
  ComputeBreakMasks(broken.data(), broken.size(), 7, masks.data());
  ASSERT_EQ(TsBlockWords(broken.size()), 2u);
  EXPECT_EQ(masks[0], ~uint64_t{0});
  EXPECT_EQ(masks[1], (uint64_t{1} << 35) - 1);  // 99 gaps: bits 64..98.
  // Unit gaps with one gap of 71 at index 149. At period 64 a full word of
  // unit gaps spans exactly the period (settled as zero by its span); the
  // over-period gap makes word 2's span exceed it. At period 63 every
  // word takes the per-gap compares. Both give the same column.
  TimestampList tight;
  for (int i = 0; i < 200; ++i) {
    tight.push_back(static_cast<Timestamp>(i < 150 ? i : i + 70));
  }
  for (uint64_t period : {uint64_t{63}, uint64_t{64}}) {
    ExpectMasksMatchReference(tight, period);
    masks.assign(TsBlockWords(tight.size()), ~uint64_t{0});
    ComputeBreakMasks(tight.data(), tight.size(), period, masks.data());
    EXPECT_EQ(masks, (std::vector<uint64_t>{0, 0, uint64_t{1} << 21, 0}))
        << "period=" << period;
  }
  // Duplicates around one gap of period + 1: word 0 spans exactly one
  // past the period, so only the per-gap compares find the break.
  TimestampList one_break(40, 0);
  one_break.resize(80, 65);
  ExpectMasksMatchReference(one_break, 64);
  masks.assign(TsBlockWords(one_break.size()), ~uint64_t{0});
  ComputeBreakMasks(one_break.data(), one_break.size(), 64, masks.data());
  EXPECT_EQ(masks, (std::vector<uint64_t>{uint64_t{1} << 39, 0}));
}

/// The masked fused gate against the scalar one, exact and tolerant
/// models, across the crossover threshold in both directions.
TEST(TsBlockTest, MaskedGateMatchesScalarGate) {
  Rng rng(424242);
  TsBlockScratch scratch;
  std::vector<PeriodicInterval> masked;
  std::vector<PeriodicInterval> scalar;
  for (size_t n : {0u, 1u, 2u, 16u, 31u, 32u, 33u, 64u, 65u, 127u, 300u}) {
    for (uint64_t period : {uint64_t{1}, uint64_t{3}, uint64_t{9}}) {
      for (uint32_t tolerance : {0u, 1u, 3u}) {
        for (int rep = 0; rep < 8; ++rep) {
          TimestampList ts = RandomSortedList(&rng, n, period, false);
          RpParams params;
          params.period = static_cast<Timestamp>(period);
          params.min_ps = 1 + rng.NextUint64(4);
          params.min_rec = 1 + rng.NextUint64(3);
          params.max_gap_violations = tolerance;
          const GateOutcome m =
              ComputeGateAndIntervals(ts, params, &masked, &scratch, nullptr);
          const GateOutcome s = ComputeGateAndIntervals(ts, params, &scalar);
          EXPECT_EQ(m.passes, s.passes);
          EXPECT_EQ(m.recurrence_upper_bound, s.recurrence_upper_bound);
          EXPECT_EQ(masked, scalar)
              << "n=" << n << " per=" << period << " tol=" << tolerance
              << " minPS=" << params.min_ps << " minRec=" << params.min_rec;
          EXPECT_EQ(ComputeRecurrenceUpperBound(ts, params, &scratch, nullptr),
                    ComputeRecurrenceUpperBound(ts, params));
          // The walk itself, below the crossover too.
          const GateOutcome w = ComputeGateAndIntervalsMasked(
              ts, params, &masked, &scratch, nullptr);
          EXPECT_EQ(w.passes, s.passes);
          EXPECT_EQ(w.recurrence_upper_bound, s.recurrence_upper_bound);
          EXPECT_EQ(masked, scalar) << "walk, n=" << n;
          EXPECT_EQ(
              ComputeRecurrenceUpperBoundMasked(ts, params, &scratch, nullptr),
              ComputeRecurrenceUpperBound(ts, params));
        }
      }
    }
  }
}

TEST(TsBlockTest, MaskedGateAdversarialExtremes) {
  TsBlockScratch scratch;
  std::vector<PeriodicInterval> masked;
  std::vector<PeriodicInterval> scalar;
  // Long straddling list: alternating tight runs and int64-overflowing
  // gaps, crossing the masked-path threshold so the mask walk really runs.
  TimestampList ts;
  Timestamp cur = kTsMin;
  for (int run = 0; run < 10; ++run) {
    for (int i = 0; i < 7; ++i) {
      ts.push_back(cur);
      cur += 2;
    }
    // Jump across a twelfth of the u64 span (cannot be <= any valid period).
    cur = static_cast<Timestamp>(static_cast<uint64_t>(cur) +
                                 (~uint64_t{0} / 12));
  }
  for (uint64_t min_ps : {uint64_t{1}, uint64_t{7}, uint64_t{8}}) {
    for (uint32_t tolerance : {0u, 2u}) {
      RpParams params;
      params.period = 2;
      params.min_ps = min_ps;
      params.min_rec = 1;
      params.max_gap_violations = tolerance;
      const GateOutcome m =
          ComputeGateAndIntervals(ts, params, &masked, &scratch, nullptr);
      const GateOutcome s = ComputeGateAndIntervals(ts, params, &scalar);
      EXPECT_EQ(m.passes, s.passes);
      EXPECT_EQ(m.recurrence_upper_bound, s.recurrence_upper_bound);
      EXPECT_EQ(masked, scalar) << "minPS=" << min_ps << " tol=" << tolerance;
    }
  }
}

TEST(TsBlockTest, GateCountersAccountScans) {
  TsBlockScratch scratch;
  GateCounters counters;
  std::vector<PeriodicInterval> intervals;
  RpParams params;
  params.period = 3;
  params.min_ps = 2;
  params.min_rec = 1;
  Rng rng(5);
  const TimestampList long_list = RandomSortedList(&rng, 201, 3, false);
  ComputeGateAndIntervals(long_list, params, &intervals, &scratch, &counters);
  EXPECT_EQ(counters.lists_scanned, 1u);
  EXPECT_EQ(counters.gaps_scanned, 200u);
  // Short lists fall back to the scalar loop but still count the volume.
  const TimestampList short_list = RandomSortedList(&rng, 10, 3, false);
  ComputeGateAndIntervals(short_list, params, &intervals, &scratch, &counters);
  EXPECT_EQ(counters.lists_scanned, 2u);
  EXPECT_EQ(counters.gaps_scanned, 209u);
}

TEST(TsBlockTest, ScratchFootprintTracksCapacity) {
  TsBlockScratch scratch;
  EXPECT_EQ(scratch.ByteFootprint(), 0u);
  scratch.break_masks.resize(16);
  EXPECT_GE(scratch.ByteFootprint(), 16 * sizeof(uint64_t));
}

}  // namespace
}  // namespace rpm
