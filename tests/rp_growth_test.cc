#include "rpm/core/rp_growth.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/brute_force.h"
#include "rpm/core/cancellation.h"
#include "rpm/gen/paper_datasets.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::DenseBurstDb;
using ::rpm::testing::DenseBurstParams;
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
  // The merge kernel ran: every kept TS^{beta+i} is assembled through
  // MergeSortedRuns (a 1-item's TS^item is the tree's rank list).
  EXPECT_GT(result.stats.merge_invocations, 0u);
  EXPECT_GT(result.stats.runs_merged, 0u);
  EXPECT_GT(result.stats.timestamps_merged, 0u);
  EXPECT_GE(result.stats.timestamps_merged, result.stats.runs_merged);
  EXPECT_GT(result.stats.scratch_bytes_peak, 0u);
}

TEST(RpGrowthTest, HugeMinPsKeepsNoSupportOnlyCandidate) {
  // min_ps * min_rec = 2^64 wraps to 0 unless MinSupport saturates, and
  // then every item would be a support-only candidate.
  RpParams params = PaperExampleParams();
  params.min_ps = uint64_t{1} << 63;
  params.min_rec = 2;
  RpGrowthOptions options;
  options.pruning = PruningMode::kSupportOnly;
  const RpGrowthResult result =
      MineRecurringPatterns(PaperExampleDb(), params, options);
  EXPECT_EQ(result.stats.num_candidate_items, 0u);
  EXPECT_EQ(result.stats.patterns_examined, 0u);
  EXPECT_TRUE(result.patterns.empty());
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

struct FragmentingCase {
  const char* name;
  TransactionDatabase db;
  RpParams params;
};

std::vector<FragmentingCase> FragmentingCases() {
  std::vector<FragmentingCase> cases;
  TransactionDatabase dense = DenseBurstDb();
  const RpParams dense_params = DenseBurstParams(dense);
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
// level by level: this fixture then averaged ~15 runs per merge (~100 on
// the same stream five times longer); it now averages ~4.
TEST(RpGrowthFragmentationTest, MergesSeeFewRunsOnDenseBursts) {
  const TransactionDatabase db = DenseBurstDb();
  const RpGrowthResult result =
      MineRecurringPatterns(db, DenseBurstParams(db));
  ASSERT_GT(result.stats.merge_invocations, 0u);
  const double runs_per_merge =
      static_cast<double>(result.stats.runs_merged) /
      static_cast<double>(result.stats.merge_invocations);
  EXPECT_LT(runs_per_merge, 8.0)
      << result.stats.runs_merged << " runs in "
      << result.stats.merge_invocations << " merges";
}

// Count-first pattern bases: a TS^{beta+i} (or, on a looser build, a
// top-level TS^item) shorter than MinSupport is skipped before any merge
// or gate scan, and counted in support_pruned.

// Items a..e; per 100 makes every list one periodic interval, so the gate
// passes exactly the lists of at least minPS * minRec = 2 timestamps.
// Pattern bases (ranks a < b < c < d): d has paths [a]{5} and [b]{6}, so
// TS^{d,a} and TS^{d,b} hold one timestamp each — two pruned lists; c has
// [a,b]{1} and [a]{4}, so TS^{c,a} = {1,4} is kept and TS^{c,b} = {1} is
// pruned; b has [a]{1,2,3} and []{6}, nothing pruned. Three in all. e
// occurs once: it is a candidate only of a build at minPS 1.
TransactionDatabase HandCountedDb() {
  const ItemId a = 0, b = 1, c = 2, d = 3, e = 4;
  ItemDictionary dict;
  for (const char* name : {"a", "b", "c", "d", "e"}) dict.GetOrAdd(name);
  return MakeDatabase({{1, {a, b, c}},
                       {2, {a, b}},
                       {3, {a, b}},
                       {4, {a, c}},
                       {5, {a, d}},
                       {6, {b, d}},
                       {7, {e}}},
                      std::move(dict));
}

TEST(RpGrowthCountFirstTest, PrunedListsMatchAHandCount) {
  const TransactionDatabase db = HandCountedDb();
  RpParams params;
  params.period = 100;
  params.min_ps = 2;
  params.min_rec = 1;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RpGrowthOptions options;
    options.num_threads = threads;
    const RpGrowthResult exact = MineRecurringPatterns(db, params, options);
    EXPECT_TRUE(SamePatternSets(exact.patterns, MineByDefinition(db, params)));
    EXPECT_EQ(exact.patterns.size(), 6u);  // a, b, c, d, ab, ac.
    EXPECT_EQ(exact.stats.support_pruned, 3u) << "threads=" << threads;

    // A build at minPS 1 also holds e; mined at minPS 2, its top-level
    // list of one timestamp is the fourth pruned list.
    RpParams loose = params;
    loose.min_ps = 1;
    const PreparedMining prepared = PrepareMining(db, loose);
    ASSERT_EQ(prepared.tree.num_ranks(), 5u);
    const RpGrowthResult reused =
        MineFromPrepared(prepared, prepared.tree, params, options);
    EXPECT_EQ(reused.patterns, exact.patterns);
    EXPECT_EQ(reused.stats.support_pruned, 4u) << "threads=" << threads;
    // The skipped rank costs no walk, merge or gate scan.
    EXPECT_EQ(reused.stats.patterns_examined, exact.stats.patterns_examined);
    EXPECT_EQ(reused.stats.merge_invocations, exact.stats.merge_invocations);
    EXPECT_EQ(reused.stats.gate_lists_scanned,
              exact.stats.gate_lists_scanned);
  }
}

// Count before sort: a pattern-base path is sorted only when it runs
// through a rank whose TS^{beta+i} the count keeps, and a top-level rank
// mines the tree's sealed rank list instead of merging its nodes' runs.
// Items a, b, c take ranks 0 < 1 < 2 (supports 5, 4, 4); per 100 makes
// every list one periodic interval. The tree holds a->b->c with c's list
// {1,2} below b's own {10}, so that b node's list is [10, 1, 2], two
// runs; beside it root->b {20}, a's own {30,40} and root->c {50,60}.
// Pattern bases: c has [a,b]{1,2} and []{50,60}, so TS^{c,a} and
// TS^{c,b} hold two timestamps each; b has [a]{10,1,2} and []{20}, so
// TS^{b,a} holds three; a's lone path [] reaches no rank.
TransactionDatabase CountBeforeSortDb() {
  const ItemId a = 0, b = 1, c = 2;
  ItemDictionary dict;
  for (const char* name : {"a", "b", "c"}) dict.GetOrAdd(name);
  return MakeDatabase({{1, {a, b, c}},
                       {2, {a, b, c}},
                       {10, {a, b}},
                       {20, {b}},
                       {30, {a}},
                       {40, {a}},
                       {50, {c}},
                       {60, {c}}},
                      std::move(dict));
}

// A pattern base with a surviving rank and a two-run path that reaches
// only pruned ranks. Items a, b, s, c take ranks 0 < 1 < 2 < 3 (supports
// 7, 7, 7, 4). The tree holds a->s->c with c's list {1,2} below s's own
// {10}, so that s node's list is [10, 1, 2]; b->s holds {20..23}. s's
// base is [a]{10,1,2} and [b]{20..23}: TS^{s,a} holds three timestamps
// and is pruned, TS^{s,b} holds four and is kept, so path [b] is mapped
// and path [a], which reaches only a, is left unsorted.
TransactionDatabase MixedBaseDb() {
  const ItemId a = 0, b = 1, s = 2, c = 3;
  ItemDictionary dict;
  for (const char* name : {"a", "b", "s", "c"}) dict.GetOrAdd(name);
  std::vector<std::pair<Timestamp, Itemset>> rows = {
      {1, {a, s, c}}, {2, {a, s, c}}, {10, {a, s}}};
  for (Timestamp ts : {20, 21, 22, 23}) rows.push_back({ts, {b, s}});
  for (Timestamp ts : {30, 31, 32, 33}) rows.push_back({ts, {a}});
  for (Timestamp ts : {40, 41, 42}) rows.push_back({ts, {b}});
  for (Timestamp ts : {50, 51}) rows.push_back({ts, {c}});
  return MakeDatabase(rows, std::move(dict));
}

TEST(RpGrowthCountFirstTest, PathsReachingOnlyPrunedRanksAreNotSorted) {
  // minPS 4, minRec 1: MinSupport 4. A miner that merged each top-level
  // TS^item from its nodes' runs and sorted every multi-run path before
  // counting would merge once more per mined rank and per two-run path.
  struct Case {
    const char* name;
    TransactionDatabase db;
    size_t patterns;
    uint64_t pruned;
    uint64_t merges;
    uint64_t conditional_trees;
  };
  const Case cases[] = {
      // All three lists of pairs pruned (2 + 2 + 3 timestamps): b's base
      // is dropped whole before its path [a] could be sorted. 0 merges
      // (that miner: 4 — TS^a, TS^b, TS^c and path [a]).
      {"all pruned", CountBeforeSortDb(), 3, 3, 0, 0},
      // c's base drops a and s, s's base drops a but keeps b: one merge
      // for the kept TS^{s,b} (that miner: 6 — four ranks, path [a] and
      // TS^{s,b}).
      {"mixed base", MixedBaseDb(), 5, 3, 1, 1},
  };
  RpParams params;
  params.period = 100;
  params.min_ps = 4;
  params.min_rec = 1;
  for (const Case& c : cases) {
    RpGrowthStats first;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      RpGrowthOptions options;
      options.num_threads = threads;
      const RpGrowthResult result =
          MineRecurringPatterns(c.db, params, options);
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      EXPECT_TRUE(
          SamePatternSets(result.patterns, MineByDefinition(c.db, params)))
          << label;
      EXPECT_EQ(result.patterns.size(), c.patterns) << label;
      EXPECT_EQ(result.stats.support_pruned, c.pruned) << label;
      EXPECT_EQ(result.stats.merge_invocations, c.merges) << label;
      EXPECT_EQ(result.stats.conditional_trees, c.conditional_trees)
          << label;
      if (threads == 1) {
        first = result.stats;
      } else {
        EXPECT_EQ(result.stats.runs_merged, first.runs_merged) << label;
        EXPECT_EQ(result.stats.timestamps_merged, first.timestamps_merged)
            << label;
        EXPECT_EQ(result.stats.gate_lists_scanned, first.gate_lists_scanned)
            << label;
        EXPECT_EQ(result.stats.gate_gaps_scanned, first.gate_gaps_scanned)
            << label;
        EXPECT_EQ(result.stats.patterns_examined, first.patterns_examined)
            << label;
      }
    }
  }
}

TEST(RpGrowthCountFirstTest, PathsReachingAKeptRankAreSortedOnce) {
  const TransactionDatabase db = CountBeforeSortDb();
  // minPS 3: MinSupport 3. c's two lists of two are pruned; TS^{b,a} =
  // {1,2,10} is counted, so path [a] is sorted (one merge) and the list
  // merged for its gate (one more), and {a,b} is a pattern.
  RpParams params;
  params.period = 100;
  params.min_ps = 3;
  params.min_rec = 1;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RpGrowthOptions options;
    options.num_threads = threads;
    const RpGrowthResult result = MineRecurringPatterns(db, params, options);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_TRUE(SamePatternSets(result.patterns, MineByDefinition(db, params)))
        << label;
    EXPECT_EQ(result.patterns.size(), 4u) << label;  // a, b, c, ab.
    EXPECT_EQ(result.stats.support_pruned, 2u) << label;
    EXPECT_EQ(result.stats.merge_invocations, 2u) << label;
    // The sort merges runs [10] and [1,2]; the gate merge copies the one
    // sorted run.
    EXPECT_EQ(result.stats.runs_merged, 3u) << label;
    EXPECT_EQ(result.stats.timestamps_merged, 6u) << label;
    EXPECT_EQ(result.stats.conditional_trees, 1u) << label;
  }
}

/// The three gate models the count rule must stay exact under.
struct GateModel {
  const char* name;
  PruningMode pruning;
  uint32_t tolerance;
};
constexpr GateModel kGateModels[] = {
    {"exact", PruningMode::kErec, 0},
    {"tolerant", PruningMode::kErec, 1},
    {"support-only", PruningMode::kSupportOnly, 0},
};

/// Top-level ranks of `tree` whose |TS^item| is below MinSupport(params).
size_t RanksBelowMinSupport(const TsPrefixTree& tree, const RpParams& params) {
  size_t below = 0;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    size_t support = 0;
    for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
      support += tree.ListLength(n);
    }
    if (support < MinSupport(params)) ++below;
  }
  return below;
}

TEST(RpGrowthCountFirstTest, LooserTreeMatchesVerticalMinerAcrossModes) {
  for (const FragmentingCase& c : FragmentingCases()) {
    for (const GateModel& model : kGateModels) {
      RpParams strict = c.params;
      strict.max_gap_violations = model.tolerance;
      RpParams loose = strict;
      loose.min_ps = strict.min_ps / 2;
      const PreparedMining prepared =
          PrepareMining(c.db, loose, model.pruning);
      ASSERT_GT(RanksBelowMinSupport(prepared.tree, strict), 0u)
          << c.name << " " << model.name << ": no top-level rank to skip";
      for (size_t max_len : {size_t{0}, size_t{2}}) {
        VerticalMinerOptions vertical;
        vertical.use_candidate_pruning = model.pruning == PruningMode::kErec;
        vertical.max_pattern_length = max_len;
        const std::vector<RecurringPattern> want =
            MineVertical(c.db, strict, vertical).patterns;
        ASSERT_FALSE(want.empty()) << c.name << ": fixture finds nothing";
        for (size_t threads : {size_t{1}, size_t{4}}) {
          RpGrowthOptions options;
          options.pruning = model.pruning;
          options.max_pattern_length = max_len;
          options.num_threads = threads;
          std::ostringstream label;
          label << c.name << " " << model.name << " max_len=" << max_len
                << " threads=" << threads;
          const RpGrowthResult exact =
              MineRecurringPatterns(c.db, strict, options);
          EXPECT_EQ(exact.patterns, want) << label.str();
          EXPECT_GT(exact.stats.support_pruned, 0u)
              << label.str() << ": nothing pruned below the top level";
          const RpGrowthResult reused =
              MineFromPrepared(prepared, prepared.tree, strict, options);
          EXPECT_EQ(reused.patterns, want) << label.str();
          EXPECT_GE(reused.stats.support_pruned,
                    RanksBelowMinSupport(prepared.tree, strict))
              << label.str();
        }
      }
    }
  }
}

TEST(RpGrowthCountFirstTest, MaxPatternsCutOnALooserTreeMatchesTheExactBuild) {
  for (const FragmentingCase& c : FragmentingCases()) {
    RpParams loose = c.params;
    loose.min_ps = c.params.min_ps / 2;
    const PreparedMining prepared = PrepareMining(c.db, loose);
    const RpGrowthResult full = MineRecurringPatterns(c.db, c.params);
    ASSERT_GT(full.patterns.size(), 8u) << c.name;
    for (uint64_t cap : {uint64_t{1}, uint64_t{full.patterns.size() / 3},
                         uint64_t{full.patterns.size() - 1}}) {
      ResourceLimits limits;
      limits.max_patterns = cap;
      QueryBudget exact_budget(limits, nullptr);
      RpGrowthOptions exact_options;
      exact_options.budget = &exact_budget;
      const RpGrowthResult exact =
          MineRecurringPatterns(c.db, c.params, exact_options);
      ASSERT_TRUE(exact.truncated) << c.name << " cap=" << cap;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        QueryBudget budget(limits, nullptr);
        RpGrowthOptions options;
        options.num_threads = threads;
        options.budget = &budget;
        const RpGrowthResult cut =
            MineFromPrepared(prepared, prepared.tree, c.params, options);
        EXPECT_TRUE(cut.truncated) << c.name << " cap=" << cap;
        EXPECT_EQ(cut.patterns, exact.patterns)
            << c.name << " cap=" << cap << " threads=" << threads;
      }
    }
  }
}

// Lockstep ancestor walks: a rank's nodes are walked 16 at a time, so
// chains of 1, 15, 16, 17 and 33 nodes per rank cover a partial group,
// exactly one group, one past it and two groups plus one, and a deep path
// makes one lane far longer than the others of its group.

/// "i<index>", the name of a filler item.
std::string ItemName(size_t index) {
  std::string name = "i";
  name += std::to_string(index);
  return name;
}

/// Transactions giving item x exactly `nodes` nodes: x with the distinct
/// subsets 0..nodes-1 of six more frequent items (subset 0 puts x under
/// the root), then 100 rows of all six. With `deep`, the fifth row of x
/// also holds 40 further items that 100 more rows make more frequent than
/// x, so its chain is 40 nodes deeper than any other.
TransactionDatabase ChainDb(size_t nodes, bool deep) {
  constexpr ItemId kX = 0;
  constexpr size_t kShallow = 6;
  constexpr size_t kDeep = 40;
  ItemDictionary dict;
  dict.GetOrAdd("x");
  for (size_t i = 0; i < kShallow + kDeep; ++i) {
    dict.GetOrAdd(ItemName(i));
  }
  std::vector<std::pair<Timestamp, Itemset>> rows;
  Timestamp ts = 0;
  for (size_t j = 0; j < nodes; ++j) {
    Itemset items = {kX};
    for (size_t bit = 0; bit < kShallow; ++bit) {
      if ((j >> bit) & 1) items.push_back(static_cast<ItemId>(1 + bit));
    }
    if (deep && j == 4) {
      for (size_t i = 0; i < kDeep; ++i) {
        items.push_back(static_cast<ItemId>(1 + kShallow + i));
      }
    }
    rows.push_back({++ts, items});
  }
  Itemset shallow, long_path;
  for (size_t i = 0; i < kShallow; ++i) {
    shallow.push_back(static_cast<ItemId>(1 + i));
  }
  for (size_t i = 0; i < kDeep; ++i) {
    long_path.push_back(static_cast<ItemId>(1 + kShallow + i));
  }
  for (size_t j = 0; j < 100; ++j) rows.push_back({++ts, shallow});
  if (deep) {
    for (size_t j = 0; j < 100; ++j) rows.push_back({++ts, long_path});
  }
  return MakeDatabase(std::move(rows), std::move(dict));
}

TEST(RpGrowthLockstepWalkTest, PatternBasesMatchASingleChainWalk) {
  struct Case {
    size_t nodes;
    bool deep;
  };
  for (const Case& c : {Case{1, false}, Case{15, false}, Case{16, false},
                        Case{17, false}, Case{33, false}, Case{17, true}}) {
    std::string label = std::to_string(c.nodes);
    label += c.deep ? " nodes + deep path" : " nodes";
    const TransactionDatabase db = ChainDb(c.nodes, c.deep);
    // Every itemset present is a pattern: per spans the database and
    // minPS = minRec = 1. Length 2 keeps the deep path's lattice small.
    RpParams params;
    params.period = 1000;
    params.min_ps = 1;
    params.min_rec = 1;
    const PreparedMining prepared = PrepareMining(db, params);
    const TsPrefixTree& tree = prepared.tree;
    const auto at = std::find(prepared.items_by_rank.begin(),
                              prepared.items_by_rank.end(), ItemId{0});
    ASSERT_NE(at, prepared.items_by_rank.end());
    const size_t rank_x = at - prepared.items_by_rank.begin();
    ASSERT_EQ(tree.RankEnd(rank_x) - tree.RankBegin(rank_x), c.nodes)
        << label;

    // Reference: walk each of x's nodes' chains one at a time; |TS^{x,i}|
    // is the summed list length of the nodes with i on their chain.
    std::vector<size_t> want_support(db.ItemUniverseSize(), 0);
    for (uint32_t n = tree.RankBegin(rank_x); n < tree.RankEnd(rank_x); ++n) {
      for (uint32_t a = tree.LinkOf(n).parent; a != TsPrefixTree::kNoParent;
           a = tree.LinkOf(a).parent) {
        want_support[tree.ItemAtRank(tree.LinkOf(a).rank)] +=
            tree.ListLength(n);
      }
    }

    VerticalMinerOptions vertical;
    vertical.max_pattern_length = 2;
    const std::vector<RecurringPattern> want =
        MineVertical(db, params, vertical).patterns;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      RpGrowthOptions options;
      options.max_pattern_length = 2;
      options.num_threads = threads;
      const RpGrowthResult got =
          MineFromPrepared(prepared, tree, params, options);
      EXPECT_EQ(got.patterns, want) << label << " threads=" << threads;
      std::vector<size_t> got_support(db.ItemUniverseSize(), 0);
      for (const RecurringPattern& p : got.patterns) {
        if (p.items.size() == 2 && p.items[0] == 0) {
          got_support[p.items[1]] = p.support;
        }
      }
      EXPECT_EQ(got_support, want_support) << label << " threads=" << threads;
    }
  }
}

TEST(RpGrowthLockstepWalkTest, CancelledMidWalkDropsTheSubproblem) {
  // Item x has 4,200 nodes (distinct subsets of 13 items that 5,000 more
  // rows make more frequent), so it is the first rank mined and its walk
  // spans 263 groups: the budget's first full probe, at its 256th
  // checkpoint, sees the cancelled token mid-walk.
  constexpr size_t kItems = 13;
  constexpr size_t kNodes = 4200;
  ItemDictionary dict;
  dict.GetOrAdd("x");
  for (size_t i = 0; i < kItems; ++i) dict.GetOrAdd(ItemName(i));
  std::vector<std::pair<Timestamp, Itemset>> rows;
  Timestamp ts = 0;
  for (size_t j = 0; j < kNodes; ++j) {
    Itemset items = {0};
    for (size_t bit = 0; bit < kItems; ++bit) {
      if ((j >> bit) & 1) items.push_back(static_cast<ItemId>(1 + bit));
    }
    rows.push_back({++ts, items});
  }
  Itemset all;
  for (size_t i = 0; i < kItems; ++i) all.push_back(static_cast<ItemId>(1 + i));
  for (size_t j = 0; j < 5000; ++j) rows.push_back({++ts, all});
  const TransactionDatabase db = MakeDatabase(std::move(rows), std::move(dict));
  RpParams params;
  params.period = 10;
  params.min_ps = 1;
  params.min_rec = 1;
  // Built unbudgeted: the build's own checkpoints would stop it first.
  const PreparedMining prepared = PrepareMining(db, params);
  ASSERT_EQ(prepared.items_by_rank.back(), ItemId{0});
  const size_t rank_x = prepared.items_by_rank.size() - 1;
  ASSERT_EQ(prepared.tree.RankEnd(rank_x) - prepared.tree.RankBegin(rank_x),
            kNodes);

  CancellationToken token;
  token.Cancel();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    QueryBudget budget(ResourceLimits{}, &token);
    RpGrowthOptions options;
    options.max_pattern_length = 2;
    options.num_threads = threads;
    options.budget = &budget;
    const RpGrowthResult result =
        MineFromPrepared(prepared, prepared.tree, params, options);
    EXPECT_TRUE(result.status.IsCancelled()) << result.status.ToString();
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.patterns.empty()) << "threads=" << threads;
    // x is the bottom-up first subproblem, so its drop drops everything.
    if (threads == 1) {
      EXPECT_EQ(result.stats.patterns_examined, 0u);
    }
  }
}

TEST(RpGrowthDeathTest, InvalidParamsAbort) {
  RpParams bad;
  bad.min_ps = 0;
  EXPECT_DEATH(MineRecurringPatterns(PaperExampleDb(), bad), "Check failed");
}

}  // namespace
}  // namespace rpm
