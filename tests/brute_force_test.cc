#include "rpm/core/brute_force.h"

#include <gtest/gtest.h>

#include "rpm/core/rp_growth.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;
using ::rpm::testing::PaperExamplePatterns;

TEST(MineByDefinitionTest, ReproducesTable2) {
  std::vector<RecurringPattern> mined =
      MineByDefinition(PaperExampleDb(), PaperExampleParams());
  EXPECT_TRUE(SamePatternSets(mined, PaperExamplePatterns()));
}

TEST(MineByDefinitionTest, EmptyDatabase) {
  EXPECT_TRUE(
      MineByDefinition(TransactionDatabase{}, PaperExampleParams()).empty());
}

TEST(MineByDefinitionTest, MinRecOneIncludesC) {
  RpParams params = PaperExampleParams();
  params.min_rec = 1;
  std::vector<RecurringPattern> mined =
      MineByDefinition(PaperExampleDb(), params);
  bool has_c = false;
  for (const RecurringPattern& p : mined) {
    if (p.items == Itemset{rpm::testing::C}) has_c = true;
  }
  EXPECT_TRUE(has_c);
}

TEST(MineVerticalTest, HugeMinPsSupportGateRejectsEveryItem) {
  // min_ps * min_rec wraps to 0 unless the gate saturates; then every
  // itemset would pass the support-only gate and be explored.
  RpParams params = PaperExampleParams();
  params.min_ps = uint64_t{1} << 63;
  params.min_rec = 2;
  VerticalMinerOptions options;
  options.use_candidate_pruning = false;
  const VerticalMinerResult result =
      MineVertical(PaperExampleDb(), params, options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.nodes_explored, 7u);  // One rejected column per item.
}

TEST(MineVerticalTest, MatchesDefinitionalOnPaperExample) {
  VerticalMinerResult vertical =
      MineVertical(PaperExampleDb(), PaperExampleParams());
  EXPECT_TRUE(SamePatternSets(
      vertical.patterns,
      MineByDefinition(PaperExampleDb(), PaperExampleParams())));
}

TEST(MineVerticalTest, PruningOnAndOffAgree) {
  VerticalMinerOptions no_prune;
  no_prune.use_candidate_pruning = false;
  VerticalMinerResult pruned =
      MineVertical(PaperExampleDb(), PaperExampleParams());
  VerticalMinerResult unpruned =
      MineVertical(PaperExampleDb(), PaperExampleParams(), no_prune);
  EXPECT_TRUE(SamePatternSets(pruned.patterns, unpruned.patterns));
  // The Erec prune must explore no more of the lattice.
  EXPECT_LE(pruned.nodes_explored, unpruned.nodes_explored);
}

TEST(MineVerticalTest, MaxLengthCapsExploration) {
  VerticalMinerOptions options;
  options.max_pattern_length = 1;
  VerticalMinerResult result =
      MineVertical(PaperExampleDb(), PaperExampleParams(), options);
  for (const RecurringPattern& p : result.patterns) {
    EXPECT_EQ(p.items.size(), 1u);
  }
}

TEST(MineVerticalTest, AgreesWithRpGrowthOnPaperExample) {
  VerticalMinerResult vertical =
      MineVertical(PaperExampleDb(), PaperExampleParams());
  RpGrowthResult growth =
      MineRecurringPatterns(PaperExampleDb(), PaperExampleParams());
  EXPECT_TRUE(SamePatternSets(vertical.patterns, growth.patterns));
}

TEST(MineVerticalTest, ParallelMatchesSequential) {
  for (uint64_t seed = 91; seed <= 94; ++seed) {
    rpm::testing::RandomDbSpec spec;
    spec.num_items = 8;
    spec.num_timestamps = 80;
    TransactionDatabase db = rpm::testing::MakeRandomDb(spec, seed);
    RpParams params;
    params.period = 3;
    params.min_ps = 2;
    params.min_rec = 1;
    VerticalMinerOptions sequential;
    VerticalMinerOptions parallel;
    parallel.num_threads = 4;
    VerticalMinerResult seq = MineVertical(db, params, sequential);
    VerticalMinerResult par = MineVertical(db, params, parallel);
    EXPECT_EQ(seq.patterns, par.patterns) << "seed " << seed;
    EXPECT_EQ(seq.nodes_explored, par.nodes_explored) << "seed " << seed;
  }
}

TEST(MineVerticalTest, MoreThreadsThanBranchesIsFine) {
  TransactionDatabase db = PaperExampleDb();
  VerticalMinerOptions options;
  options.num_threads = 64;
  VerticalMinerResult result =
      MineVertical(db, PaperExampleParams(), options);
  EXPECT_TRUE(SamePatternSets(
      result.patterns, MineByDefinition(db, PaperExampleParams())));
}

TEST(MineByDefinitionDeathTest, RejectsLargeUniverses) {
  // 21 distinct items exceeds kMaxDefinitionalItems.
  std::vector<std::pair<Timestamp, Itemset>> rows;
  Itemset wide;
  for (ItemId i = 0; i < 21; ++i) wide.push_back(i);
  rows.push_back({1, wide});
  TransactionDatabase db = MakeDatabase(rows);
  EXPECT_DEATH(MineByDefinition(db, PaperExampleParams()), "Check failed");
}

}  // namespace
}  // namespace rpm
