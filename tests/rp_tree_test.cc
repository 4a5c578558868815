#include "rpm/core/rp_tree.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/cancellation.h"
#include "rpm/core/rp_growth.h"
#include "rpm/timeseries/transaction_database.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::E;
using ::rpm::testing::F;

/// Builds the paper's RP-tree (Figure 5(b)): candidate order a,b,c,d,e,f
/// (ranks 0..5), inserting the Table 1 transactions' candidate projections.
TsPrefixTree BuildPaperTree() {
  TsPrefixTree tree({A, B, C, D, E, F});
  const std::vector<std::pair<Timestamp, std::vector<uint32_t>>> rows = {
      {1, {0, 1}},           {2, {0, 2, 3}},    {3, {0, 1, 4, 5}},
      {4, {0, 1, 2, 3}},     {5, {2, 3, 4, 5}}, {6, {4, 5}},
      {7, {0, 1, 2}},        {9, {2, 3}},       {10, {2, 3, 4, 5}},
      {11, {0, 1, 4, 5}},    {12, {0, 1, 2, 3, 4, 5}},
      {14, {0, 1}},
  };
  for (const auto& [ts, ranks] : rows) tree.InsertTransaction(ranks, ts);
  return tree;
}

TEST(TsPrefixTreeTest, Figure5bNodeCount) {
  TsPrefixTree tree = BuildPaperTree();
  // Distinct candidate-projection prefixes of Table 1: 16 nodes.
  EXPECT_EQ(tree.NodeCount(), 16u);
}

TEST(TsPrefixTreeTest, Lemma2SizeBound) {
  TsPrefixTree tree = BuildPaperTree();
  // Sum of |CI(t)| over Table 1 = 46 total occurrences - 6 of pruned 'g'.
  EXPECT_LE(tree.NodeCount(), 40u);
}

TEST(TsPrefixTreeTest, TailTsListsMatchFigure5b) {
  TsPrefixTree tree = BuildPaperTree();
  // Collect (path+rank -> ts_list) for every rank.
  std::map<std::vector<uint32_t>, TimestampList> tails;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(
        rank,
        [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
          if (ts.empty()) return;
          std::vector<uint32_t> key = path;
          key.push_back(static_cast<uint32_t>(rank));
          tails[key] = ts;
        });
  }
  const std::map<std::vector<uint32_t>, TimestampList> expected = {
      {{0, 1}, {1, 14}},
      {{0, 2, 3}, {2}},
      {{0, 1, 4, 5}, {3, 11}},
      {{0, 1, 2, 3}, {4}},
      {{2, 3, 4, 5}, {5, 10}},
      {{4, 5}, {6}},
      {{0, 1, 2}, {7}},
      {{2, 3}, {9}},
      {{0, 1, 2, 3, 4, 5}, {12}},
  };
  EXPECT_EQ(tails, expected);
}

TEST(TsPrefixTreeTest, PrefixTreeForItemFMatchesFigure6a) {
  TsPrefixTree tree = BuildPaperTree();
  // Rank 5 = item 'f'. Its prefix paths and ts-lists are Figure 6(a).
  std::map<std::vector<uint32_t>, TimestampList> collected;
  tree.ForEachNodeOfRank(
      5, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        collected[path] = ts;
      });
  const std::map<std::vector<uint32_t>, TimestampList> expected = {
      {{0, 1, 4}, {3, 11}},
      {{2, 3, 4}, {5, 10}},
      {{4}, {6}},
      {{0, 1, 2, 3, 4}, {12}},
  };
  EXPECT_EQ(collected, expected);
}

TEST(TsPrefixTreeTest, PushUpMovesListsToParents) {
  TsPrefixTree tree = BuildPaperTree();
  tree.PushUpAndRemove(5);
  EXPECT_EQ(tree.HeadOfRank(5), nullptr);
  EXPECT_EQ(tree.NodeCount(), 12u);  // Four 'f' nodes removed.

  // Figure 6(c): the 'e' nodes now hold the ts-lists f carried.
  std::multiset<TimestampList> e_lists;
  std::multiset<TimestampList> expected = {{3, 11}, {5, 10}, {6}, {12}};
  tree.ForEachNodeOfRank(
      4, [&](const std::vector<uint32_t>&, const TimestampList& ts) {
        TimestampList sorted = ts;
        std::sort(sorted.begin(), sorted.end());
        e_lists.insert(sorted);
      });
  EXPECT_EQ(e_lists, expected);
}

TEST(TsPrefixTreeTest, FullBottomUpConsumesTree) {
  TsPrefixTree tree = BuildPaperTree();
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    tree.PushUpAndRemove(rank);
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.NodeCount(), 0u);
}

TEST(TsPrefixTreeTest, CollectedTimestampsCoverEachTransactionOnce) {
  // Property 3: each transaction's projection appears exactly once. The
  // total of all ts-list lengths collected at each rank, bottom-up, must
  // be the number of transactions containing that rank's item.
  TsPrefixTree tree = BuildPaperTree();
  const size_t expected_support[6] = {8, 7, 7, 6, 6, 6};
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    size_t total = 0;
    tree.ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>&, const TimestampList& ts) {
          total += ts.size();
        });
    EXPECT_EQ(total, expected_support[rank]) << "rank " << rank;
    tree.PushUpAndRemove(rank);
  }
}

TEST(TsPrefixTreeTest, InsertPathMergesIdenticalPaths) {
  TsPrefixTree tree({10, 20});
  tree.InsertPath({0, 1}, TimestampList{5, 7});
  tree.InsertPath({0, 1}, TimestampList{9});
  EXPECT_EQ(tree.NodeCount(), 2u);
  size_t calls = 0;
  tree.ForEachNodeOfRank(
      1, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        ++calls;
        EXPECT_EQ(path, (std::vector<uint32_t>{0}));
        EXPECT_EQ(ts, (TimestampList{5, 7, 9}));
      });
  EXPECT_EQ(calls, 1u);
}

TEST(TsPrefixTreeTest, EmptyInsertIsNoOp) {
  TsPrefixTree tree({10});
  tree.InsertTransaction({}, 1);
  tree.InsertPath({}, TimestampList{1, 2});
  EXPECT_TRUE(tree.empty());
}

TEST(TsPrefixTreeTest, ItemAtRankMapsBack) {
  TsPrefixTree tree({42, 17, 5});
  EXPECT_EQ(tree.num_ranks(), 3u);
  EXPECT_EQ(tree.ItemAtRank(0), 42u);
  EXPECT_EQ(tree.ItemAtRank(2), 5u);
}

TEST(TsPrefixTreeTest, SharedPrefixesCompress) {
  TsPrefixTree tree({1, 2, 3});
  tree.InsertTransaction({0, 1, 2}, 1);
  tree.InsertTransaction({0, 1, 2}, 2);
  tree.InsertTransaction({0, 1}, 3);
  EXPECT_EQ(tree.NodeCount(), 3u);  // One path, shared.
}

// --- Clone (the query engine's build-once/mine-many primitive) --------------

/// A rank's (root path, ts-list) pairs in node-link *chain order* — the
/// order mining visits conditional pattern bases, so equality here implies
/// bit-identical mining behaviour, counters included.
using Chain = std::vector<std::pair<std::vector<uint32_t>, TimestampList>>;

Chain ChainOfRank(const TsPrefixTree& tree, size_t rank) {
  Chain chain;
  tree.ForEachNodeOfRank(
      rank, [&](const std::vector<uint32_t>& path, const TimestampList& ts) {
        chain.emplace_back(path, ts);
      });
  return chain;
}

TEST(TsPrefixTreeTest, ClonePreservesStructureAndChainOrder) {
  TsPrefixTree tree = BuildPaperTree();
  TsPrefixTree clone = tree.Clone();
  EXPECT_EQ(clone.NodeCount(), tree.NodeCount());
  EXPECT_EQ(clone.items_by_rank(), tree.items_by_rank());
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(ChainOfRank(clone, rank), ChainOfRank(tree, rank))
        << "rank " << rank;
  }
}

TEST(TsPrefixTreeTest, CloneIsIndependentOfTheOriginal) {
  TsPrefixTree tree = BuildPaperTree();
  TsPrefixTree clone = tree.Clone();
  // Consume the clone bottom-up (what mining does); the master is
  // untouched and can produce further identical clones.
  for (size_t rank = clone.num_ranks(); rank-- > 0;) {
    clone.PushUpAndRemove(rank);
  }
  EXPECT_TRUE(clone.empty());
  EXPECT_EQ(tree.NodeCount(), 16u);
  TsPrefixTree again = tree.Clone();
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(ChainOfRank(again, rank), ChainOfRank(tree, rank));
  }
}

TEST(TsPrefixTreeTest, CloneOfEmptyTree) {
  TsPrefixTree tree({1, 2, 3});
  TsPrefixTree clone = tree.Clone();
  EXPECT_EQ(clone.NodeCount(), 0u);
  EXPECT_EQ(clone.num_ranks(), 3u);
  clone.InsertTransaction({0, 2}, 4);  // Still a usable tree.
  EXPECT_EQ(clone.NodeCount(), 2u);
  EXPECT_EQ(tree.NodeCount(), 0u);
}

// --- RetireBefore: the windowed miner's lazy expiry sweep.

/// Sum of every ts-list entry below `rank_count` ranks via the public walk.
size_t CountTimestamps(const TsPrefixTree& tree) {
  size_t n = 0;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(rank, [&](const std::vector<uint32_t>&,
                                     const TimestampList& ts) {
      n += ts.size();
    });
  }
  return n;
}

TEST(TsPrefixTreeTest, RetireBeforeDropsOldTimestampsOnly) {
  TsPrefixTree tree = BuildPaperTree();
  const size_t nodes_before = tree.NodeCount();
  const size_t ts_before = tree.TimestampCount();
  TsPrefixTree::RetireStats stats = tree.RetireBefore(5);
  // Table 1 has 4 transactions below ts 5; each contributes one tail
  // timestamp.
  EXPECT_EQ(stats.timestamps_retired, 4u);
  EXPECT_EQ(tree.TimestampCount(), ts_before - 4);
  EXPECT_EQ(CountTimestamps(tree), ts_before - 4);
  // Every node with an emptied ts-list in Figure 5(b) still has a live
  // descendant or sibling-path timestamps... except the pure prefix
  // {a,b} (ts 1,14): ts 14 survives, so no node dies here.
  EXPECT_EQ(stats.nodes_retired, nodes_before - tree.NodeCount());
  // No surviving timestamp is below the cutoff.
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    tree.ForEachNodeOfRank(rank, [&](const std::vector<uint32_t>&,
                                     const TimestampList& ts) {
      for (Timestamp t : ts) EXPECT_GE(t, 5);
    });
  }
}

TEST(TsPrefixTreeTest, RetireBeforeDetachesEmptyChildlessNodes) {
  // Two leaf paths: {0,1} live only at ts 2, {0} at ts 10. Retiring past
  // 2 must drop the {0,1} leaf (empty + childless) but keep its parent
  // {0}, which still holds ts 10.
  TsPrefixTree tree({A, B});
  tree.InsertTransaction({0, 1}, 2);
  tree.InsertTransaction({0}, 10);
  ASSERT_EQ(tree.NodeCount(), 2u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(5);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.HeadOfRank(1), nullptr);
  ASSERT_NE(tree.HeadOfRank(0), nullptr);
  // The chain of rank 0 is intact and walkable.
  size_t visits = 0;
  tree.ForEachNodeOfRank(0, [&](const std::vector<uint32_t>& path,
                                const TimestampList& ts) {
    ++visits;
    EXPECT_TRUE(path.empty());
    EXPECT_EQ(ts, (TimestampList{10}));
  });
  EXPECT_EQ(visits, 1u);
}

TEST(TsPrefixTreeTest, RetireBeforeCascadesUpEmptyPrefixes) {
  // A single deep path whose only timestamp expires: every node on the
  // path empties bottom-up and the whole path is detached.
  TsPrefixTree tree({A, B, C});
  tree.InsertTransaction({0, 1, 2}, 3);
  ASSERT_EQ(tree.NodeCount(), 3u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(100);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 3u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_TRUE(tree.empty());
  for (size_t rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(tree.HeadOfRank(rank), nullptr);
  }
  // The tree stays usable after a full retire.
  tree.InsertTransaction({0, 2}, 200);
  EXPECT_EQ(tree.NodeCount(), 2u);
  EXPECT_EQ(tree.TimestampCount(), 1u);
}

TEST(TsPrefixTreeTest, RetireBeforeNoOpCutoff) {
  TsPrefixTree tree = BuildPaperTree();
  const size_t nodes = tree.NodeCount();
  const size_t ts = tree.TimestampCount();
  TsPrefixTree::RetireStats stats = tree.RetireBefore(0);
  EXPECT_EQ(stats.timestamps_retired, 0u);
  EXPECT_EQ(stats.nodes_retired, 0u);
  EXPECT_EQ(tree.NodeCount(), nodes);
  EXPECT_EQ(tree.TimestampCount(), ts);
}

TEST(TsPrefixTreeTest, RetireBeforePreservesChainOrderAndRuns) {
  // Node-link chain order and the sorted-runs property of ts-lists are
  // the determinism contract the miners rely on: after retiring, each
  // surviving list must still be the original subsequence (order kept).
  TsPrefixTree tree({A, B});
  tree.InsertTransaction({0, 1}, 1);
  tree.InsertTransaction({0}, 2);
  tree.InsertTransaction({0, 1}, 3);
  tree.InsertTransaction({0}, 4);
  tree.InsertTransaction({0, 1}, 5);
  tree.RetireBefore(3);
  std::vector<TimestampList> lists;
  tree.ForEachNodeOfRank(1, [&](const std::vector<uint32_t>&,
                                const TimestampList& ts) {
    lists.push_back(ts);
  });
  ASSERT_EQ(lists.size(), 1u);
  EXPECT_EQ(lists[0], (TimestampList{3, 5}));
  tree.ForEachNodeOfRank(0, [&](const std::vector<uint32_t>&,
                                const TimestampList& ts) {
    EXPECT_EQ(ts, (TimestampList{4}));
  });
}

// --- Move-to-front sibling lists --------------------------------------------
//
// A lookup that finds a child relinks it at the head of its parent's
// sibling list. Sibling order then follows access, but nodes are still
// created in first-touch order, so node-link chains, ts-lists and every
// operation that walks them are unchanged.

/// Flattened observable state of a tree: every rank's chain. Equality of
/// this snapshot is equality of everything mining can see.
struct TreeSnapshot {
  std::vector<Chain> by_rank;
  size_t node_count = 0;
  size_t timestamp_count = 0;
  bool operator==(const TreeSnapshot&) const = default;
};

TreeSnapshot Snapshot(const TsPrefixTree& tree) {
  TreeSnapshot snap;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    snap.by_rank.push_back(ChainOfRank(tree, rank));
  }
  snap.node_count = tree.NodeCount();
  snap.timestamp_count = tree.TimestampCount();
  return snap;
}

/// Reference model of a build: every prefix of every inserted rank
/// sequence becomes a node the first time it is touched; a chain lists
/// its rank's nodes in that creation order, and a node's ts-list is the
/// concatenation of the lists inserted at it, in insertion order.
class FirstTouchModel {
 public:
  explicit FirstTouchModel(size_t num_ranks) : by_rank_(num_ranks) {}

  void Insert(const std::vector<uint32_t>& ranks, const TimestampList& ts) {
    if (ranks.empty()) return;
    std::vector<uint32_t> prefix;
    for (uint32_t rank : ranks) {
      prefix.push_back(rank);
      if (index_.emplace(prefix, by_rank_[rank].size()).second) {
        by_rank_[rank].push_back(
            {std::vector<uint32_t>(prefix.begin(), prefix.end() - 1), {}});
      }
    }
    TimestampList& list = by_rank_[ranks.back()][index_[ranks]].second;
    list.insert(list.end(), ts.begin(), ts.end());
    timestamps_ += ts.size();
  }

  TreeSnapshot Snapshot() const {
    TreeSnapshot snap;
    snap.by_rank = by_rank_;
    snap.node_count = index_.size();
    snap.timestamp_count = timestamps_;
    return snap;
  }

 private:
  std::vector<Chain> by_rank_;
  std::map<std::vector<uint32_t>, size_t> index_;  // Prefix -> chain slot.
  size_t timestamps_ = 0;
};

/// Ranks of the root's children, in sibling-list order.
std::vector<uint32_t> RootChildRanks(const TsPrefixTree& tree) {
  std::vector<uint32_t> ranks;
  const TsPrefixTree::Node* any = tree.HeadOfRank(0);
  if (any == nullptr) return ranks;
  for (const TsPrefixTree::Node* c = any->parent->first_child; c != nullptr;
       c = c->next_sibling) {
    ranks.push_back(c->rank);
  }
  return ranks;
}

using Rows = std::vector<std::pair<Timestamp, std::vector<uint32_t>>>;

/// Later rows step through non-head siblings, at the root and below.
const Rows& ReorderingRows() {
  static const Rows rows = {
      {1, {0, 2}}, {2, {1, 2}}, {3, {2}}, {4, {3}},
      {5, {0, 3}},  // Root siblings 3,2,1,0: 0 moves to the front.
      {6, {0, 2}},  // Under 0, siblings 3,2: 2 moves to the front.
      {7, {1, 3}}, {8, {2}}, {9, {0, 3}}, {10, {3}},
  };
  return rows;
}

TsPrefixTree BuildReorderedTree() {
  TsPrefixTree tree({A, B, C, D});
  for (const auto& [ts, ranks] : ReorderingRows()) {
    tree.InsertTransaction(ranks, ts);
  }
  return tree;
}

TEST(TsPrefixTreeTest, MoveToFrontKeepsChainsInFirstTouchOrder) {
  const TsPrefixTree tree = BuildReorderedTree();
  // Sibling order is access order: the most recently used child first.
  // A creation-ordered list would read 3,2,1,0.
  EXPECT_EQ(RootChildRanks(tree), (std::vector<uint32_t>{3, 0, 2, 1}));

  // Chains stay in creation (first-touch) order and ts-lists in database
  // order, whatever the sibling lists look like.
  const TreeSnapshot snap = Snapshot(tree);
  EXPECT_EQ(snap.by_rank[2], (Chain{{{0}, {1, 6}}, {{1}, {2}}, {{}, {3, 8}}}));
  EXPECT_EQ(snap.by_rank[3], (Chain{{{}, {4, 10}}, {{0}, {5, 9}}, {{1}, {7}}}));
  EXPECT_EQ(snap.node_count, 8u);
  EXPECT_EQ(snap.timestamp_count, 10u);

  FirstTouchModel model(4);
  for (const auto& [ts, ranks] : ReorderingRows()) model.Insert(ranks, {ts});
  EXPECT_EQ(snap, model.Snapshot());
}

TEST(TsPrefixTreeTest, MoveToFrontBuildMatchesFirstTouchModel) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    testing::RandomDbSpec spec;
    spec.num_items = 12;
    spec.num_timestamps = 1600;
    spec.num_bursts = 8;
    const TransactionDatabase db = testing::MakeRandomDb(spec, seed);
    std::vector<ItemId> order(db.ItemUniverseSize());
    for (ItemId i = 0; i < order.size(); ++i) order[i] = i;
    const TsPrefixTree tree = BuildRankedTree(db, order);
    FirstTouchModel model(order.size());
    for (const Transaction& tr : db.transactions()) {
      std::vector<uint32_t> ranks(tr.items.begin(), tr.items.end());
      std::sort(ranks.begin(), ranks.end());
      model.Insert(ranks, {tr.ts});
    }
    EXPECT_EQ(Snapshot(tree), model.Snapshot()) << "seed=" << seed;
  }
}

TEST(TsPrefixTreeTest, CloneAfterMoveToFront) {
  const TsPrefixTree tree = BuildReorderedTree();
  const TsPrefixTree clone = tree.Clone();
  EXPECT_EQ(Snapshot(clone), Snapshot(tree));
}

TEST(TsPrefixTreeTest, PushUpAfterMoveToFront) {
  // Unlinking walks the (reordered) sibling lists; bottom-up mining still
  // collects, at every rank, exactly the transactions containing it.
  TsPrefixTree tree = BuildReorderedTree();
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    TimestampList collected;
    tree.ForEachNodeOfRank(
        rank, [&](const std::vector<uint32_t>&, const TimestampList& ts) {
          collected.insert(collected.end(), ts.begin(), ts.end());
        });
    std::sort(collected.begin(), collected.end());
    TimestampList want;
    for (const auto& [ts, ranks] : ReorderingRows()) {
      if (std::find(ranks.begin(), ranks.end(), rank) != ranks.end()) {
        want.push_back(ts);
      }
    }
    EXPECT_EQ(collected, want) << "rank " << rank;
    tree.PushUpAndRemove(rank);
    EXPECT_EQ(tree.HeadOfRank(rank), nullptr);
  }
  EXPECT_TRUE(tree.empty());
}

TEST(TsPrefixTreeTest, RetireBeforeAfterMoveToFront) {
  // Retiring the first five rows filters every list and detaches the one
  // node left empty and childless; survivors keep their chain order.
  TsPrefixTree tree = BuildReorderedTree();
  const TsPrefixTree::RetireStats stats = tree.RetireBefore(6);
  EXPECT_EQ(stats.timestamps_retired, 5u);
  EXPECT_EQ(stats.nodes_retired, 1u);  // {2} under 1 held only ts 2.
  const TreeSnapshot snap = Snapshot(tree);
  EXPECT_EQ(snap.by_rank[2], (Chain{{{0}, {6}}, {{}, {8}}}));
  EXPECT_EQ(snap.by_rank[3], (Chain{{{}, {10}}, {{0}, {9}}, {{1}, {7}}}));
  EXPECT_EQ(snap.node_count, 7u);
  EXPECT_EQ(snap.timestamp_count, 5u);
  // The swept tree keeps serving inserts and clones.
  tree.InsertTransaction({1, 2}, 11);
  EXPECT_EQ(Snapshot(tree.Clone()), Snapshot(tree));
}

TEST(TsPrefixTreeTest, InsertPathMoveToFrontKeepsChainsInFirstTouchOrder) {
  // Conditional-tree construction: whole lists land at path ends.
  const std::vector<std::pair<std::vector<uint32_t>, TimestampList>> paths = {
      {{0, 1}, {1, 4}}, {{1}, {2}}, {{2}, {3}},
      {{0, 2}, {5}},     // Root siblings 2,1,0: 0 moves to the front.
      {{0, 1}, {6, 9}},  // Under 0, siblings 2,1: 1 moves to the front.
      {{1, 2}, {7}}, {{0, 2}, {8}},
  };
  TsPrefixTree tree({A, B, C});
  FirstTouchModel model(3);
  for (const auto& [ranks, ts] : paths) {
    tree.InsertPath(ranks, ts);
    model.Insert(ranks, ts);
  }
  EXPECT_EQ(RootChildRanks(tree), (std::vector<uint32_t>{0, 1, 2}));
  const TreeSnapshot snap = Snapshot(tree);
  EXPECT_EQ(snap.by_rank[1], (Chain{{{0}, {1, 4, 6, 9}}, {{}, {2}}}));
  EXPECT_EQ(snap.by_rank[2], (Chain{{{}, {3}}, {{0}, {5, 8}}, {{1}, {7}}}));
  EXPECT_EQ(snap, model.Snapshot());
  EXPECT_EQ(Snapshot(tree.Clone()), snap);
}

// --- BuildRankedTree: pass 2 over a database, under a budget ----------------

/// A database large enough to span several budget checkpoint strides.
TransactionDatabase BuildDb(uint64_t seed) {
  testing::RandomDbSpec spec;
  spec.num_items = 12;
  spec.num_timestamps = 1600;
  spec.max_gap = 3;
  spec.num_bursts = 8;
  return testing::MakeRandomDb(spec, seed);
}

RpParams BuildDbParams() {
  RpParams params;
  params.period = 4;
  params.min_ps = 3;
  params.min_rec = 2;
  return params;
}

TEST(TreeBuildTest, ThreadCountArgumentIsIgnored) {
  // Callers that still pass a thread count get the one sequential build.
  const TransactionDatabase db = BuildDb(3);
  const PreparedMining prepared = PrepareMining(db, BuildDbParams());
  const TreeSnapshot want = Snapshot(prepared.tree);
  for (size_t threads : {0u, 1u, 2u, 4u}) {
    const TsPrefixTree tree =
        BuildRankedTree(db, prepared.items_by_rank, nullptr, threads);
    EXPECT_EQ(Snapshot(tree), want) << "threads=" << threads;
  }
}

TEST(TreeBuildTest, CancelledBudgetStopsBuild) {
  const TransactionDatabase db = BuildDb(5);
  const PreparedMining prepared = PrepareMining(db, BuildDbParams());
  ASSERT_GT(prepared.tree.TimestampCount(), 0u);
  CancellationToken cancel;
  cancel.Cancel();
  ResourceLimits limits;
  QueryBudget budget(limits, &cancel);
  budget.Probe();  // Latch the cancellation before the build starts.
  const TsPrefixTree tree = BuildRankedTree(db, prepared.items_by_rank,
                                            &budget);
  EXPECT_TRUE(budget.hard_stopped());
  EXPECT_EQ(budget.stop_reason(), StopReason::kCancelled);
  // A latched stop is seen at the first checkpoint: nothing is inserted.
  EXPECT_EQ(tree.TimestampCount(), 0u);
}

TEST(TreeBuildTest, MemoryBudgetTripsBuild) {
  const TransactionDatabase db = BuildDb(13);
  const PreparedMining prepared = PrepareMining(db, BuildDbParams());
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;  // Any tracked growth trips it.
  QueryBudget budget(limits, nullptr);
  const TsPrefixTree tree = BuildRankedTree(db, prepared.items_by_rank,
                                            &budget);
  EXPECT_TRUE(budget.hard_stopped());
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemory);
  EXPECT_LT(tree.TimestampCount(), prepared.tree.TimestampCount());
}

}  // namespace
}  // namespace rpm
