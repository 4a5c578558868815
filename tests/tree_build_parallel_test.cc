// Parallel RP-tree build vs the sequential reference: the partitioned
// build + partial-trie fold (BuildRankedTree with num_threads > 1) must
// produce a tree that is *observably identical* to the sequential one —
// same node-link chain order, same root paths, same per-node ts-lists —
// and mining either tree must yield bit-identical results and counters.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/cancellation.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_tree.h"
#include "rpm/timeseries/transaction_database.h"
#include "test_util.h"

namespace rpm {
namespace {

/// Flattened observable state of a tree: for every rank, the chain-order
/// sequence of (root path, ts-list). Equality of this snapshot is
/// equality of everything mining can see.
struct TreeSnapshot {
  struct NodeView {
    std::vector<uint32_t> path;
    TimestampList ts_list;
    bool operator==(const NodeView&) const = default;
  };
  std::vector<std::vector<NodeView>> by_rank;
  size_t node_count = 0;
  size_t timestamp_count = 0;
  bool operator==(const TreeSnapshot&) const = default;
};

TreeSnapshot Snapshot(const TsPrefixTree& tree) {
  TreeSnapshot snap;
  snap.by_rank.resize(tree.num_ranks());
  snap.node_count = tree.NodeCount();
  snap.timestamp_count = tree.TimestampCount();
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          snap.by_rank[rank].push_back({path, ts});
        });
  }
  return snap;
}

/// A database big enough to clear kMinTransactionsPerBuildPartition for
/// several workers (the parallel path stays dormant on toy inputs).
TransactionDatabase BigRandomDb(uint64_t seed) {
  testing::RandomDbSpec spec;
  spec.num_items = 12;
  spec.num_timestamps = 1600;
  spec.max_gap = 3;
  spec.num_bursts = 8;
  return testing::MakeRandomDb(spec, seed);
}

RpParams BigDbParams() {
  RpParams params;
  params.period = 4;
  params.min_ps = 3;
  params.min_rec = 2;
  return params;
}

TEST(TreeBuildParallelTest, StructurallyIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    const TransactionDatabase db = BigRandomDb(seed);
    const PreparedMining prepared = PrepareMining(db, BigDbParams());
    const TreeSnapshot want = Snapshot(prepared.tree);
    for (size_t threads : {2u, 3u, 4u, 7u}) {
      TreeBuildStats stats;
      const TsPrefixTree tree = BuildRankedTree(db, prepared.items_by_rank,
                                                nullptr, threads, &stats);
      EXPECT_EQ(Snapshot(tree), want) << "seed=" << seed << " threads="
                                      << threads;
      EXPECT_GE(stats.threads_used, 1u);
      EXPECT_LE(stats.threads_used, threads);
      if (stats.threads_used > 1) {
        EXPECT_EQ(stats.partials_merged, stats.threads_used - 1);
        EXPECT_GT(stats.merged_nodes, 0u);
      }
    }
  }
}

TEST(TreeBuildParallelTest, SmallDatabasesStaySequential) {
  const TransactionDatabase db = testing::PaperExampleDb();
  const PreparedMining prepared = PrepareMining(db, testing::PaperExampleParams());
  TreeBuildStats stats;
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, nullptr, 8, &stats);
  // 12 transactions cannot fill even one 256-transaction partition per
  // extra worker, so the build must take the sequential path.
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.partials_merged, 0u);
  EXPECT_EQ(stats.merge_seconds, 0.0);
  EXPECT_EQ(Snapshot(tree), Snapshot(prepared.tree));
}

TEST(TreeBuildParallelTest, PreparedMiningThreadsPropagate) {
  const TransactionDatabase db = BigRandomDb(3);
  const RpParams params = BigDbParams();
  const PreparedMining seq = PrepareMining(db, params);
  const PreparedMining par =
      PrepareMining(db, params, PruningMode::kErec, nullptr, 4);
  EXPECT_EQ(seq.tree_build.threads_used, 1u);
  EXPECT_GT(par.tree_build.threads_used, 1u);
  EXPECT_EQ(par.tree_build.partials_merged, par.tree_build.threads_used - 1);
  EXPECT_EQ(Snapshot(par.tree), Snapshot(seq.tree));
  EXPECT_EQ(par.initial_tree_nodes, seq.initial_tree_nodes);
  EXPECT_EQ(par.items_by_rank, seq.items_by_rank);
}

TEST(TreeBuildParallelTest, MiningEqualAcrossTreeBuildBackends) {
  const TransactionDatabase db = BigRandomDb(11);
  const RpParams params = BigDbParams();
  const PreparedMining seq = PrepareMining(db, params);
  const PreparedMining par =
      PrepareMining(db, params, PruningMode::kErec, nullptr, 4);
  const RpGrowthResult a = MineFromPrepared(seq, seq.tree.Clone(), params);
  const RpGrowthResult b = MineFromPrepared(par, par.tree.Clone(), params);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.patterns, b.patterns);
  // Schedule-invariant counters must agree bit-for-bit.
  EXPECT_EQ(a.stats.patterns_examined, b.stats.patterns_examined);
  EXPECT_EQ(a.stats.conditional_trees, b.stats.conditional_trees);
  EXPECT_EQ(a.stats.merge_invocations, b.stats.merge_invocations);
  EXPECT_EQ(a.stats.runs_merged, b.stats.runs_merged);
  EXPECT_EQ(a.stats.timestamps_merged, b.stats.timestamps_merged);
  EXPECT_EQ(a.stats.gate_lists_scanned, b.stats.gate_lists_scanned);
  EXPECT_EQ(a.stats.gate_gaps_scanned, b.stats.gate_gaps_scanned);
  // And the build provenance must be visible on the folded stats.
  EXPECT_EQ(a.stats.tree_build_threads, 1u);
  EXPECT_GT(b.stats.tree_build_threads, 1u);
  EXPECT_EQ(b.stats.tree_partials_merged, b.stats.tree_build_threads - 1);
  for (const RecurringPattern& p : a.patterns) {
    EXPECT_EQ(testing::VerifyPatternAgainstDb(db, params, p), "");
  }
}

TEST(TreeBuildParallelTest, EndToEndMiningUsesParallelBuild) {
  const TransactionDatabase db = BigRandomDb(21);
  const RpParams params = BigDbParams();
  RpGrowthOptions seq_options;
  RpGrowthOptions par_options;
  par_options.num_threads = 4;
  const RpGrowthResult a = MineRecurringPatterns(db, params, seq_options);
  const RpGrowthResult b = MineRecurringPatterns(db, params, par_options);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.stats.tree_build_threads, 1u);
  EXPECT_GT(b.stats.tree_build_threads, 1u);
}

TEST(TreeBuildParallelTest, CancelledBudgetStopsParallelBuild) {
  const TransactionDatabase db = BigRandomDb(5);
  const PreparedMining prepared = PrepareMining(db, BigDbParams());
  CancellationToken cancel;
  cancel.Cancel();
  ResourceLimits limits;
  QueryBudget budget(limits, &cancel);
  budget.Probe();  // Latch the cancellation before the build starts.
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, &budget, 4);
  EXPECT_TRUE(budget.hard_stopped());
  // The partial result carries fewer timestamps than a full build (the
  // workers observed the stop within one checkpoint interval).
  EXPECT_LE(tree.TimestampCount(), prepared.tree.TimestampCount());
}

TEST(TreeBuildParallelTest, MemoryBudgetTripsParallelBuild) {
  const TransactionDatabase db = BigRandomDb(13);
  const PreparedMining prepared = PrepareMining(db, BigDbParams());
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;  // Any tracked growth trips it.
  QueryBudget budget(limits, nullptr);
  const TsPrefixTree tree =
      BuildRankedTree(db, prepared.items_by_rank, &budget, 4);
  EXPECT_TRUE(budget.hard_stopped());
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemory);
  EXPECT_LT(tree.TimestampCount(), prepared.tree.TimestampCount());
}

TEST(TreeBuildParallelTest, MergeAppendFromFoldsDisjointAndOverlapping) {
  const std::vector<ItemId> items = {0, 1, 2};
  // Sequential reference over the concatenated inserts.
  TsPrefixTree want(items);
  TsPrefixTree left(items);
  TsPrefixTree right(items);
  const std::vector<std::vector<uint32_t>> first = {{0, 1}, {0, 2}, {1, 2}};
  const std::vector<std::vector<uint32_t>> second = {{0, 1}, {2}, {0, 1, 2}};
  Timestamp ts = 0;
  for (const auto& ranks : first) {
    want.InsertTransaction(ranks, ts);
    left.InsertTransaction(ranks, ts);
    ++ts;
  }
  for (const auto& ranks : second) {
    want.InsertTransaction(ranks, ts);
    right.InsertTransaction(ranks, ts);
    ++ts;
  }
  left.MergeAppendFrom(std::move(right));
  EXPECT_EQ(Snapshot(left), Snapshot(want));
}

}  // namespace
}  // namespace rpm
