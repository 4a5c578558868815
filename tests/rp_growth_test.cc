#include "rpm/core/rp_growth.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "rpm/core/brute_force.h"
#include "rpm/core/cancellation.h"
#include "rpm/gen/hashtag_generator.h"
#include "rpm/gen/paper_datasets.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::G;
using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;
using ::rpm::testing::PaperExamplePatterns;

TEST(RpGrowthTest, ReproducesTable2Exactly) {
  RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  std::vector<RecurringPattern> expected = PaperExamplePatterns();
  ASSERT_EQ(result.patterns.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.patterns[i], expected[i])
        << "mined: " << result.patterns[i].ToString()
        << "\nexpected: " << expected[i].ToString();
  }
}

TEST(RpGrowthTest, Example10CNotRecurringButCdIs) {
  RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  bool has_c = false, has_cd = false;
  for (const RecurringPattern& p : result.patterns) {
    if (p.items == Itemset{C}) has_c = true;
    if (p.items == Itemset{C, D}) has_cd = true;
  }
  EXPECT_FALSE(has_c);  // Anti-monotonicity violation the paper highlights.
  EXPECT_TRUE(has_cd);
}

TEST(RpGrowthTest, PrunedItemGAppearsInNoPattern) {
  RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  for (const RecurringPattern& p : result.patterns) {
    for (ItemId item : p.items) EXPECT_NE(item, G);
  }
}

TEST(RpGrowthTest, StatsReflectRun) {
  RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  EXPECT_EQ(result.stats.num_items, 7u);
  EXPECT_EQ(result.stats.num_candidate_items, 6u);
  EXPECT_EQ(result.stats.initial_tree_nodes, 16u);  // Figure 5(b).
  EXPECT_EQ(result.stats.patterns_emitted, 8u);
  EXPECT_GE(result.stats.patterns_examined, 8u);
  EXPECT_GE(result.stats.total_seconds, 0.0);
  // The merge kernel ran: every examined candidate assembles its ts_beta
  // through MergeSortedRuns, and the run/timestamp tallies cover at least
  // the per-item lists the example's tree holds.
  EXPECT_GT(result.stats.merge_invocations, 0u);
  EXPECT_GT(result.stats.runs_merged, 0u);
  EXPECT_GT(result.stats.timestamps_merged, 0u);
  EXPECT_GE(result.stats.timestamps_merged, result.stats.runs_merged);
  EXPECT_GT(result.stats.scratch_bytes_peak, 0u);
}

TEST(RpGrowthTest, SupportOnlyPruningGivesSameAnswer) {
  RpGrowthOptions naive;
  naive.pruning = PruningMode::kSupportOnly;
  RpGrowthResult with_erec =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  RpGrowthResult without =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams(), naive);
  EXPECT_TRUE(SamePatternSets(with_erec.patterns, without.patterns));
}

TEST(RpGrowthTest, MaxPatternLengthOneYieldsOnlyItems) {
  RpGrowthOptions options;
  options.max_pattern_length = 1;
  RpGrowthResult result = MineRecurringPatterns(
      PaperExampleDb(), PaperExampleParams(), options);
  ASSERT_EQ(result.patterns.size(), 5u);  // a, b, d, e, f.
  for (const RecurringPattern& p : result.patterns) {
    EXPECT_EQ(p.items.size(), 1u);
  }
}

TEST(RpGrowthTest, MaxPatternLengthTwoMatchesFullRunHere) {
  // Table 2's longest pattern is length 2, so capping at 2 changes nothing.
  RpGrowthOptions options;
  options.max_pattern_length = 2;
  RpGrowthResult capped = MineRecurringPatterns(
      PaperExampleDb(), PaperExampleParams(), options);
  EXPECT_TRUE(SamePatternSets(capped.patterns, PaperExamplePatterns()));
}

TEST(RpGrowthTest, EmptyDatabaseYieldsNothing) {
  RpGrowthResult result =
      MineRecurringPatterns(TransactionDatabase{}, PaperExampleParams());
  EXPECT_TRUE(result.patterns.empty());
}

TEST(RpGrowthTest, SingleTransactionMinPsOne) {
  TransactionDatabase db = MakeDatabase({{5, {A, B}}});
  RpParams params;
  params.period = 1;
  params.min_ps = 1;
  params.min_rec = 1;
  RpGrowthResult result = MineRecurringPatterns(db, params);
  // {a}, {b}, {ab} each have one interval [5,5] with ps=1.
  ASSERT_EQ(result.patterns.size(), 3u);
  for (const RecurringPattern& p : result.patterns) {
    EXPECT_EQ(p.support, 1u);
    ASSERT_EQ(p.intervals.size(), 1u);
    EXPECT_EQ(p.intervals[0], (PeriodicInterval{5, 5, 1}));
  }
}

TEST(RpGrowthTest, MinRecOneFindsCAsSingleInterval) {
  RpParams params = PaperExampleParams();
  params.min_rec = 1;
  RpGrowthResult result = MineRecurringPatterns(PaperExampleDb(), params);
  const RecurringPattern* c = nullptr;
  for (const RecurringPattern& p : result.patterns) {
    if (p.items == Itemset{C}) c = &p;
  }
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->support, 7u);
  ASSERT_EQ(c->intervals.size(), 1u);
  EXPECT_EQ(c->intervals[0], (PeriodicInterval{2, 12, 7}));
}

TEST(RpGrowthTest, LargePeriodMergesEverything) {
  RpParams params;
  params.period = 100;
  params.min_ps = 3;
  params.min_rec = 2;
  // With per covering the whole span, nothing can recur twice.
  RpGrowthResult result = MineRecurringPatterns(PaperExampleDb(), params);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(RpGrowthTest, EveryEmittedPatternVerifiesAgainstDefinitions) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult result = MineRecurringPatterns(db, params);
  for (const RecurringPattern& p : result.patterns) {
    EXPECT_EQ(rpm::testing::VerifyPatternAgainstDb(db, params, p), "")
        << p.ToString();
  }
}

TEST(RpGrowthTest, ResultsAreInCanonicalOrder) {
  RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  for (size_t i = 1; i < result.patterns.size(); ++i) {
    EXPECT_LT(result.patterns[i - 1].items, result.patterns[i].items);
  }
}

TEST(RpGrowthTest, NoiseTolerantModeBridgesPlantedGap) {
  // Item X fires every timestamp 1..6 and 9..14 with a single hole; with
  // per=1 and one allowed violation the two runs merge.
  std::vector<std::pair<Timestamp, Itemset>> rows;
  for (Timestamp ts : {1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14}) {
    rows.push_back({ts, {A}});
  }
  TransactionDatabase db = MakeDatabase(rows);
  RpParams strict;
  strict.period = 1;
  strict.min_ps = 10;
  strict.min_rec = 1;
  EXPECT_TRUE(MineRecurringPatterns(db, strict).patterns.empty());

  RpParams tolerant = strict;
  tolerant.max_gap_violations = 1;
  RpGrowthResult result = MineRecurringPatterns(db, tolerant);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].intervals.size(), 1u);
  EXPECT_EQ(result.patterns[0].intervals[0], (PeriodicInterval{1, 14, 12}));
}

// Fragmenting inputs: few distinct transaction shapes recurring for long
// stretches, so a rank's nodes carry long pushed-up lists that interleave.
// These are the inputs on which unsorted path lists used to compound into
// ~100 runs per merge down the recursion.

/// bench_hotpath's dense-synth burst stream (50 tags, 2-6 day events
/// firing at 0.9) at a fifth of its length.
gen::GeneratedHashtagStream DenseBurstStream() {
  constexpr double kScale = 0.2;
  gen::HashtagParams p;
  p.num_minutes = static_cast<size_t>(40000 * kScale);
  p.num_hashtags = 50;
  p.background_rate = 1.0;
  p.daily_dropout_base = 0.0;
  p.daily_dropout_slope = 0.0;
  p.num_random_events = static_cast<size_t>(16 * kScale) + 1;
  p.min_event_tags = 2;
  p.max_event_tags = 4;
  p.min_event_windows = 1;
  p.max_event_windows = 2;
  p.min_event_minutes = 2 * 1440;
  p.max_event_minutes = 6 * 1440;
  p.event_fire_prob = 0.9;
  p.seed = 4242;
  return gen::GenerateHashtagStream(p);
}

/// The dense regime's classic relative threshold: minPS = 5 % of the
/// transactions, per 6 h. minRec is 1, because the shortened stream has
/// too few events for many itemsets to recur twice.
RpParams DenseParams(const TransactionDatabase& db) {
  RpParams params;
  params.period = 360;
  params.min_ps = static_cast<uint64_t>(
      std::ceil(0.05 * static_cast<double>(db.size())));
  params.min_rec = 1;
  return params;
}

struct FragmentingCase {
  const char* name;
  TransactionDatabase db;
  RpParams params;
};

std::vector<FragmentingCase> FragmentingCases() {
  std::vector<FragmentingCase> cases;
  TransactionDatabase dense = DenseBurstStream().db;
  const RpParams dense_params = DenseParams(dense);
  cases.push_back({"dense-burst", std::move(dense), dense_params});
  RpParams twitter_params;
  twitter_params.period = 60;
  twitter_params.min_ps = 60;
  twitter_params.min_rec = 1;
  cases.push_back({"twitter-mini", gen::MakeTwitter(0.01, 88).db,
                   twitter_params});
  return cases;
}

TEST(RpGrowthFragmentationTest, MatchesVerticalMinerAcrossModes) {
  for (const FragmentingCase& c : FragmentingCases()) {
    for (PruningMode pruning : {PruningMode::kErec, PruningMode::kSupportOnly}) {
      for (size_t max_len : {size_t{0}, size_t{2}}) {
        VerticalMinerOptions vertical;
        vertical.use_candidate_pruning = pruning == PruningMode::kErec;
        vertical.max_pattern_length = max_len;
        const std::vector<RecurringPattern> want =
            MineVertical(c.db, c.params, vertical).patterns;
        ASSERT_FALSE(want.empty()) << c.name << ": fixture finds nothing";
        for (size_t threads : {size_t{1}, size_t{4}}) {
          RpGrowthOptions options;
          options.pruning = pruning;
          options.max_pattern_length = max_len;
          options.num_threads = threads;
          const RpGrowthResult got =
              MineRecurringPatterns(c.db, c.params, options);
          EXPECT_EQ(got.patterns, want)
              << c.name << " pruning="
              << (pruning == PruningMode::kErec ? "erec" : "support")
              << " max_len=" << max_len << " threads=" << threads;
        }
      }
    }
  }
}

TEST(RpGrowthFragmentationTest, MaxPatternsCutKeepsOnePrefixAcrossThreads) {
  for (const FragmentingCase& c : FragmentingCases()) {
    const RpGrowthResult full = MineRecurringPatterns(c.db, c.params);
    ASSERT_GT(full.patterns.size(), 8u) << c.name;
    for (uint64_t cap : {uint64_t{1}, uint64_t{full.patterns.size() / 3},
                         uint64_t{full.patterns.size() - 1}}) {
      std::vector<RecurringPattern> reference;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ResourceLimits limits;
        limits.max_patterns = cap;
        QueryBudget budget(limits, nullptr);
        RpGrowthOptions options;
        options.num_threads = threads;
        options.budget = &budget;
        const RpGrowthResult cut = MineRecurringPatterns(c.db, c.params,
                                                         options);
        EXPECT_TRUE(cut.status.ok()) << cut.status.ToString();
        EXPECT_TRUE(cut.truncated) << c.name << " cap=" << cap;
        EXPECT_LE(cut.patterns.size(), cap);
        for (const RecurringPattern& p : cut.patterns) {
          EXPECT_NE(std::find(full.patterns.begin(), full.patterns.end(), p),
                    full.patterns.end())
              << p.ToString();
        }
        if (threads == 1) {
          reference = cut.patterns;
        } else {
          EXPECT_EQ(cut.patterns, reference)
              << c.name << " cap=" << cap << " threads=" << threads;
        }
      }
    }
  }
}

// Tripwire: every ts-list entering a conditional tree is one sorted run
// and a kept TS^{beta+i} is handed to the child instead of being merged
// again, so a merge sees about as many runs as its pattern base has paths.
// When path lists entered conditional trees unsorted, the runs compounded
// level by level: this fixture then averaged ~15 runs per merge (~100 at
// bench_hotpath's full dense-synth scale); it now averages ~4.
TEST(RpGrowthFragmentationTest, MergesSeeFewRunsOnDenseBursts) {
  const TransactionDatabase db = DenseBurstStream().db;
  const RpGrowthResult result = MineRecurringPatterns(db, DenseParams(db));
  ASSERT_GT(result.stats.merge_invocations, 0u);
  const double runs_per_merge =
      static_cast<double>(result.stats.runs_merged) /
      static_cast<double>(result.stats.merge_invocations);
  EXPECT_LT(runs_per_merge, 8.0)
      << result.stats.runs_merged << " runs in "
      << result.stats.merge_invocations << " merges";
}

TEST(RpGrowthDeathTest, InvalidParamsAbort) {
  RpParams bad;
  bad.min_ps = 0;
  EXPECT_DEATH(MineRecurringPatterns(PaperExampleDb(), bad), "Check failed");
}

}  // namespace
}  // namespace rpm
