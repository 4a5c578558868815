#include "rpm/core/rp_tree.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/cancellation.h"
#include "rpm/core/rp_growth.h"
#include "rpm/engine/session.h"
#include "rpm/gen/paper_datasets.h"
#include "rpm/timeseries/tdb_builder.h"
#include "rpm/timeseries/transaction_database.h"
#include "rpm/verify/fault_injection.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::E;
using ::rpm::testing::F;

/// Seals a tree built from (timestamp, ranks) rows.
using Rows = std::vector<std::pair<Timestamp, std::vector<uint32_t>>>;

TsPrefixTree BuildTree(std::vector<ItemId> items_by_rank, const Rows& rows) {
  TsPrefixTree::Builder builder(std::move(items_by_rank));
  for (const auto& [ts, ranks] : rows) builder.InsertTransaction(ranks, ts);
  return std::move(builder).Seal();
}

/// Builds the paper's RP-tree (Figure 5(b)): candidate order a,b,c,d,e,f
/// (ranks 0..5), inserting the Table 1 transactions' candidate projections.
TsPrefixTree BuildPaperTree() {
  return BuildTree({A, B, C, D, E, F},
                   {
                       {1, {0, 1}},           {2, {0, 2, 3}},
                       {3, {0, 1, 4, 5}},     {4, {0, 1, 2, 3}},
                       {5, {2, 3, 4, 5}},     {6, {4, 5}},
                       {7, {0, 1, 2}},        {9, {2, 3}},
                       {10, {2, 3, 4, 5}},    {11, {0, 1, 4, 5}},
                       {12, {0, 1, 2, 3, 4, 5}},
                       {14, {0, 1}},
                   });
}

bool RankEmpty(const TsPrefixTree& tree, size_t rank) {
  return tree.RankBegin(rank) == tree.RankEnd(rank);
}

/// Ancestor ranks of `node`, root side first, excluding the node itself.
std::vector<uint32_t> PathOf(const TsPrefixTree& tree, uint32_t node) {
  std::vector<uint32_t> path;
  for (uint32_t a = tree.LinkOf(node).parent; a != TsPrefixTree::kNoParent;
       a = tree.LinkOf(a).parent) {
    path.insert(path.begin(), tree.LinkOf(a).rank);
  }
  return path;
}

TimestampList ListOf(const TsPrefixTree& tree, uint32_t node) {
  const std::span<const Timestamp> ts = tree.ListOf(node);
  return TimestampList(ts.begin(), ts.end());
}

/// Every node's own (tail) list: the prefix of its accumulated list that
/// its children's lists do not cover.
std::vector<TimestampList> OwnLists(const TsPrefixTree& tree) {
  std::vector<uint32_t> own(tree.NodeCount());
  for (uint32_t n = 0; n < own.size(); ++n) own[n] = tree.ListLength(n);
  for (uint32_t n = 0; n < own.size(); ++n) {
    const uint32_t parent = tree.LinkOf(n).parent;
    if (parent != TsPrefixTree::kNoParent) own[parent] -= tree.ListLength(n);
  }
  std::vector<TimestampList> lists(own.size());
  for (uint32_t n = 0; n < own.size(); ++n) {
    const std::span<const Timestamp> ts = tree.ListOf(n);
    lists[n].assign(ts.begin(), ts.begin() + own[n]);
  }
  return lists;
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
  // Collect (path+rank -> own ts-list) for every node.
  const std::vector<TimestampList> own = OwnLists(tree);
  std::map<std::vector<uint32_t>, TimestampList> tails;
  for (uint32_t n = 0; n < tree.NodeCount(); ++n) {
    if (own[n].empty()) continue;
    std::vector<uint32_t> key = PathOf(tree, n);
    key.push_back(tree.LinkOf(n).rank);
    tails[key] = own[n];
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
  for (uint32_t n = tree.RankBegin(5); n < tree.RankEnd(5); ++n) {
    collected[PathOf(tree, n)] = ListOf(tree, n);
  }
  const std::map<std::vector<uint32_t>, TimestampList> expected = {
      {{0, 1, 4}, {3, 11}},
      {{2, 3, 4}, {5, 10}},
      {{4}, {6}},
      {{0, 1, 2, 3, 4}, {12}},
  };
  EXPECT_EQ(collected, expected);
}

TEST(TsPrefixTreeTest, PushUpMovesListsToParents) {
  // Lemma 3's push-up is implicit in the sealed layout: an 'e' node's
  // list already holds the lists its 'f' children carry (Figure 6(c)),
  // and nothing is removed from the tree.
  TsPrefixTree tree = BuildPaperTree();
  EXPECT_EQ(tree.NodeCount(), 16u);
  std::multiset<TimestampList> e_lists;
  std::multiset<TimestampList> expected = {{3, 11}, {5, 10}, {6}, {12}};
  for (uint32_t n = tree.RankBegin(4); n < tree.RankEnd(4); ++n) {
    TimestampList sorted = ListOf(tree, n);
    std::sort(sorted.begin(), sorted.end());
    e_lists.insert(sorted);
  }
  EXPECT_EQ(e_lists, expected);
}

TEST(TsPrefixTreeTest, CollectedTimestampsCoverEachTransactionOnce) {
  // Property 3: each transaction's projection appears exactly once. The
  // total of all ts-list lengths collected at each rank, bottom-up, must
  // be the number of transactions containing that rank's item.
  TsPrefixTree tree = BuildPaperTree();
  const size_t expected_support[6] = {8, 7, 7, 6, 6, 6};
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    size_t total = 0;
    for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
      total += tree.ListLength(n);
    }
    EXPECT_EQ(total, expected_support[rank]) << "rank " << rank;
  }
}

TEST(TsPrefixTreeTest, InsertPathMergesIdenticalPaths) {
  // InsertPath borrows its list until Seal(), so the lists are named.
  const TimestampList first = {5, 7};
  const TimestampList second = {9};
  TsPrefixTree::Builder builder({10, 20});
  builder.InsertPath({0, 1}, first);
  builder.InsertPath({0, 1}, second);
  const TsPrefixTree tree = std::move(builder).Seal();
  EXPECT_EQ(tree.NodeCount(), 2u);
  ASSERT_EQ(tree.RankEnd(1) - tree.RankBegin(1), 1u);
  const uint32_t node = tree.RankBegin(1);
  EXPECT_EQ(PathOf(tree, node), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ListOf(tree, node), (TimestampList{5, 7, 9}));
}

TEST(TsPrefixTreeTest, CopiedAndBorrowedListsKeepInsertionOrderAtOneNode) {
  // Transactions (copied) and paths (borrowed until Seal) ending at one
  // node, alternately: the node's list is their concatenation in call
  // order, and a transaction after a path starts a new copied run.
  const TimestampList path_a = {20, 21};
  const TimestampList path_b = {40};
  const TimestampList path_c = {60, 61, 62};
  TsPrefixTree::Builder builder({10, 20});
  builder.InsertTransaction({0, 1}, 1);
  builder.InsertTransaction({0, 1}, 2);
  builder.InsertPath({0, 1}, path_a);
  builder.InsertTransaction({0, 1}, 30);
  builder.InsertPath({0, 1}, path_b);
  builder.InsertPath({0, 1}, path_c);
  builder.InsertTransaction({0}, 5);
  builder.InsertTransaction({0, 1}, 70);
  const TsPrefixTree tree = std::move(builder).Seal();
  ASSERT_EQ(tree.NodeCount(), 2u);
  const uint32_t leaf = tree.RankBegin(1);
  EXPECT_EQ(ListOf(tree, leaf),
            (TimestampList{1, 2, 20, 21, 30, 40, 60, 61, 62, 70}));
  EXPECT_EQ(ListOf(tree, tree.RankBegin(0)),
            (TimestampList{5, 1, 2, 20, 21, 30, 40, 60, 61, 62, 70}));
}

TEST(TsPrefixTreeTest, EmptyInsertIsNoOp) {
  TsPrefixTree::Builder builder({10});
  builder.InsertTransaction({}, 1);
  builder.InsertPath({}, TimestampList{1, 2});
  EXPECT_TRUE(std::move(builder).Seal().empty());
}

TEST(TsPrefixTreeTest, ItemAtRankMapsBack) {
  TsPrefixTree tree({42, 17, 5});
  EXPECT_EQ(tree.num_ranks(), 3u);
  EXPECT_EQ(tree.ItemAtRank(0), 42u);
  EXPECT_EQ(tree.ItemAtRank(2), 5u);
}

TEST(TsPrefixTreeTest, SharedPrefixesCompress) {
  const TsPrefixTree tree =
      BuildTree({1, 2, 3}, {{1, {0, 1, 2}}, {2, {0, 1, 2}}, {3, {0, 1}}});
  EXPECT_EQ(tree.NodeCount(), 3u);  // One path, shared.
}

// --- Clone: a plain copy of the sealed arrays -------------------------------

/// A rank's (root path, own ts-list) pairs in node-link *chain order* —
/// the order mining visits conditional pattern bases, so equality here
/// implies bit-identical mining behaviour, counters included.
using Chain = std::vector<std::pair<std::vector<uint32_t>, TimestampList>>;

Chain ChainOfRank(const TsPrefixTree& tree, size_t rank) {
  const std::vector<TimestampList> own = OwnLists(tree);
  Chain chain;
  for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
    chain.emplace_back(PathOf(tree, n), own[n]);
  }
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
  // Retire everything from the clone; the original is untouched and can
  // produce further identical clones.
  clone.RetireBefore(100);
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
  EXPECT_EQ(clone.TimestampCount(), 0u);
  EXPECT_EQ(clone.num_ranks(), 3u);
  for (size_t rank = 0; rank < 3; ++rank) EXPECT_TRUE(RankEmpty(clone, rank));
}

// --- RetireBefore: the windowed miner's lazy expiry sweep.

/// Sum of every node's own list length via the public accessors.
size_t CountTimestamps(const TsPrefixTree& tree) {
  size_t n = 0;
  for (const TimestampList& own : OwnLists(tree)) n += own.size();
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
  for (uint32_t n = 0; n < tree.NodeCount(); ++n) {
    for (Timestamp t : tree.ListOf(n)) EXPECT_GE(t, 5);
  }
}

TEST(TsPrefixTreeTest, RetireBeforeDetachesEmptyChildlessNodes) {
  // Two leaf paths: {0,1} live only at ts 2, {0} at ts 10. Retiring past
  // 2 must drop the {0,1} leaf (empty + childless) but keep its parent
  // {0}, which still holds ts 10.
  TsPrefixTree tree = BuildTree({A, B}, {{2, {0, 1}}, {10, {0}}});
  ASSERT_EQ(tree.NodeCount(), 2u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(5);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 1u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_TRUE(RankEmpty(tree, 1));
  ASSERT_EQ(tree.RankEnd(0) - tree.RankBegin(0), 1u);
  const uint32_t node = tree.RankBegin(0);
  EXPECT_TRUE(PathOf(tree, node).empty());
  EXPECT_EQ(ListOf(tree, node), (TimestampList{10}));
}

TEST(TsPrefixTreeTest, RetireBeforeCascadesUpEmptyPrefixes) {
  // A single deep path whose only timestamp expires: every node on the
  // path empties bottom-up and the whole path is detached.
  TsPrefixTree tree = BuildTree({A, B, C}, {{3, {0, 1, 2}}});
  ASSERT_EQ(tree.NodeCount(), 3u);
  TsPrefixTree::RetireStats stats = tree.RetireBefore(100);
  EXPECT_EQ(stats.timestamps_retired, 1u);
  EXPECT_EQ(stats.nodes_retired, 3u);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_TRUE(tree.empty());
  for (size_t rank = 0; rank < 3; ++rank) EXPECT_TRUE(RankEmpty(tree, rank));
  // Retiring an empty tree again is a no-op.
  stats = tree.RetireBefore(200);
  EXPECT_EQ(stats.timestamps_retired, 0u);
  EXPECT_EQ(stats.nodes_retired, 0u);
  EXPECT_EQ(tree.TimestampCount(), 0u);
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
  TsPrefixTree tree = BuildTree(
      {A, B}, {{1, {0, 1}}, {2, {0}}, {3, {0, 1}}, {4, {0}}, {5, {0, 1}}});
  tree.RetireBefore(3);
  ASSERT_EQ(tree.RankEnd(1) - tree.RankBegin(1), 1u);
  EXPECT_EQ(ListOf(tree, tree.RankBegin(1)), (TimestampList{3, 5}));
  ASSERT_EQ(tree.RankEnd(0) - tree.RankBegin(0), 1u);
  EXPECT_EQ(OwnLists(tree)[tree.RankBegin(0)], (TimestampList{4}));
  // The accumulated list: own timestamps first, then the child's.
  EXPECT_EQ(ListOf(tree, tree.RankBegin(0)), (TimestampList{4, 3, 5}));
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
  return BuildTree({A, B, C, D}, ReorderingRows());
}

TEST(TsPrefixTreeTest, MoveToFrontKeepsChainsInFirstTouchOrder) {
  const TsPrefixTree tree = BuildReorderedTree();
  // Chains stay in creation (first-touch) order and ts-lists in database
  // order, whatever the builder's sibling lists looked like.
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
  // Bottom-up, every rank's accumulated lists hold exactly the
  // transactions containing it — the push-up invariant, read straight
  // off the sealed layout.
  const TsPrefixTree tree = BuildReorderedTree();
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    TimestampList collected;
    for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
      const std::span<const Timestamp> ts = tree.ListOf(n);
      collected.insert(collected.end(), ts.begin(), ts.end());
    }
    std::sort(collected.begin(), collected.end());
    TimestampList want;
    for (const auto& [ts, ranks] : ReorderingRows()) {
      if (std::find(ranks.begin(), ranks.end(), rank) != ranks.end()) {
        want.push_back(ts);
      }
    }
    EXPECT_EQ(collected, want) << "rank " << rank;
  }
  EXPECT_EQ(tree.NodeCount(), 8u);  // Reading consumes nothing.
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
  EXPECT_EQ(Snapshot(tree.Clone()), snap);
}

TEST(TsPrefixTreeTest, InsertPathMoveToFrontKeepsChainsInFirstTouchOrder) {
  // Conditional-tree construction: whole lists land at path ends.
  const std::vector<std::pair<std::vector<uint32_t>, TimestampList>> paths = {
      {{0, 1}, {1, 4}}, {{1}, {2}}, {{2}, {3}},
      {{0, 2}, {5}},     // Root siblings 2,1,0: 0 moves to the front.
      {{0, 1}, {6, 9}},  // Under 0, siblings 2,1: 1 moves to the front.
      {{1, 2}, {7}}, {{0, 2}, {8}},
  };
  TsPrefixTree::Builder builder({A, B, C});
  FirstTouchModel model(3);
  for (const auto& [ranks, ts] : paths) {
    builder.InsertPath(ranks, ts);
    model.Insert(ranks, ts);
  }
  const TsPrefixTree tree = std::move(builder).Seal();
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

/// Every array of a sealed tree, read through its public accessors: node
/// links, list spans as slab offsets, the slab, the rank ranges and the
/// rank lists. Equal values mean byte-identical trees.
struct SealedArrays {
  std::vector<std::pair<uint32_t, uint32_t>> links;  ///< (parent, rank).
  std::vector<std::pair<size_t, uint32_t>> spans;    ///< (offset, length).
  TimestampList slab;
  std::vector<std::pair<uint32_t, uint32_t>> rank_ranges;
  std::vector<TimestampList> rank_lists;
  bool operator==(const SealedArrays&) const = default;
};

SealedArrays ArraysOf(const TsPrefixTree& tree) {
  SealedArrays out;
  // The root children's ranges tile the slab; the lowest one starts it.
  const Timestamp* base = nullptr;
  for (uint32_t n = 0; n < tree.NodeCount(); ++n) {
    if (tree.LinkOf(n).parent != TsPrefixTree::kNoParent) continue;
    if (base == nullptr || tree.ListOf(n).data() < base) {
      base = tree.ListOf(n).data();
    }
  }
  if (base != nullptr) out.slab.assign(base, base + tree.TimestampCount());
  for (uint32_t n = 0; n < tree.NodeCount(); ++n) {
    out.links.emplace_back(tree.LinkOf(n).parent, tree.LinkOf(n).rank);
    out.spans.emplace_back(tree.ListOf(n).data() - base, tree.ListLength(n));
  }
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    out.rank_ranges.emplace_back(tree.RankBegin(rank), tree.RankEnd(rank));
    if (tree.has_rank_lists()) out.rank_lists.push_back(tree.RankList(rank));
  }
  return out;
}

/// A database and the candidate order a build runs over.
struct BuildCase {
  std::string name;
  TransactionDatabase db;
  std::vector<ItemId> order;
};

std::vector<uint32_t> RankOf(const BuildCase& c) {
  std::vector<uint32_t> rank_of(c.db.ItemUniverseSize(), kNotCandidate);
  for (uint32_t rank = 0; rank < c.order.size(); ++rank) {
    rank_of[c.order[rank]] = rank;
  }
  return rank_of;
}

/// A transaction's candidate ranks, ascending.
std::vector<uint32_t> RanksOf(const Transaction& tr,
                              const std::vector<uint32_t>& rank_of) {
  std::vector<uint32_t> ranks;
  for (ItemId item : tr.items) {
    if (rank_of[item] != kNotCandidate) ranks.push_back(rank_of[item]);
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

/// The reference build: one builder inserting every transaction in ts
/// order, so chains are in first-touch order, then the rank lists.
TsPrefixTree SequentialBuild(const BuildCase& c) {
  const std::vector<uint32_t> rank_of = RankOf(c);
  TsPrefixTree::Builder builder(c.order);
  for (const Transaction& tr : c.db.transactions()) {
    builder.InsertTransaction(RanksOf(tr, rank_of), tr.ts);
  }
  TsPrefixTree tree = std::move(builder).Seal();
  tree.FillRankLists(c.db.transactions(), rank_of);
  return tree;
}

/// The same inserts in an explicit first-touch model.
TreeSnapshot FirstTouchSnapshot(const BuildCase& c) {
  const std::vector<uint32_t> rank_of = RankOf(c);
  FirstTouchModel model(c.order.size());
  for (const Transaction& tr : c.db.transactions()) {
    model.Insert(RanksOf(tr, rank_of), {tr.ts});
  }
  return model.Snapshot();
}

std::vector<ItemId> CandidateOrder(const TransactionDatabase& db,
                                   const RpParams& params) {
  return PrepareMining(db, params).items_by_rank;
}

/// Large enough for BuildRankedTree to split over four partitions.
const BuildCase& SplitCase() {
  static const BuildCase c = [] {
    BuildCase out{"T10I4D100K/0.15", gen::MakeT10I4D100K(0.15, 5), {}};
    RpParams params;
    params.period = 1440;
    params.min_ps = 15;
    params.min_rec = 1;
    out.order = CandidateOrder(out.db, params);
    return out;
  }();
  return c;
}

std::vector<BuildCase> BuildCases() {
  std::vector<BuildCase> cases;
  for (uint64_t seed : {3u, 5u, 13u}) {
    TransactionDatabase db = BuildDb(seed);
    std::vector<ItemId> order = CandidateOrder(db, BuildDbParams());
    cases.push_back({"BuildDb/" + std::to_string(seed), std::move(db),
                     std::move(order)});
  }
  {
    TransactionDatabase db = testing::DenseBurstDb();
    std::vector<ItemId> order =
        CandidateOrder(db, testing::DenseBurstParams(db));
    cases.push_back({"DenseBurstDb", std::move(db), std::move(order)});
  }
  // Table 1 over the paper's candidate order a..f ('g' is pruned).
  cases.push_back({"Table1", testing::PaperExampleDb(), {A, B, C, D, E, F}});
  // One bucket: every transaction holds rank 0.
  {
    std::vector<std::pair<Timestamp, Itemset>> rows;
    std::mt19937 rng(11);
    for (Timestamp ts = 1; ts <= 400; ++ts) {
      Itemset items = {0};
      for (ItemId item = 1; item < 9; ++item) {
        if (rng() % 3 == 0) items.push_back(item);
      }
      rows.push_back({ts, items});
    }
    cases.push_back({"OneBucket", MakeDatabase(std::move(rows)),
                     {0, 3, 1, 4, 2, 5, 6, 7, 8}});
  }
  // Transactions of non-candidate items only (9 and 10 are not ranked),
  // which the build skips, between ones it inserts.
  {
    std::vector<std::pair<Timestamp, Itemset>> rows;
    std::mt19937 rng(17);
    for (Timestamp ts = 1; ts <= 400; ++ts) {
      Itemset items;
      for (ItemId item = 0; item < 11; ++item) {
        if (rng() % (item < 9 ? 4 : 2) == 0) items.push_back(item);
      }
      if (ts % 5 == 0) items = {9, 10};
      if (items.empty()) items = {9};
      rows.push_back({ts, items});
    }
    cases.push_back({"NonCandidateOnly", MakeDatabase(std::move(rows)),
                     {8, 0, 7, 1, 6, 2, 5, 3, 4}});
  }
  return cases;
}

constexpr size_t kBuildThreadCounts[] = {0, 1, 2, 3, 4, 8};

TEST(TreeBuildTest, ThreadCountDoesNotChangeTheTree) {
  for (const BuildCase& c : BuildCases()) {
    const TsPrefixTree reference = SequentialBuild(c);
    ASSERT_GT(reference.NodeCount(), 0u) << c.name;
    const SealedArrays want = ArraysOf(reference);
    const TreeSnapshot model = FirstTouchSnapshot(c);
    EXPECT_EQ(Snapshot(reference), model) << c.name;
    for (size_t threads : kBuildThreadCounts) {
      const TsPrefixTree tree =
          BuildRankedTree(c.db, c.order, nullptr, threads);
      EXPECT_EQ(ArraysOf(tree), want) << c.name << " threads=" << threads;
      EXPECT_EQ(Snapshot(tree), model) << c.name << " threads=" << threads;
    }
  }
  // The split case's nodes are too many for the map-based model; its
  // reference is the sequential builder, checked against the model above.
  const BuildCase& c = SplitCase();
  const SealedArrays want = ArraysOf(SequentialBuild(c));
  for (size_t threads : kBuildThreadCounts) {
    EXPECT_EQ(ArraysOf(BuildRankedTree(c.db, c.order, nullptr, threads)),
              want)
        << c.name << " threads=" << threads;
  }
}

TEST(TreeBuildTest, SplitCaseRunsFourPartitions) {
  // ParallelFor consults threadpool.spawn once per extra worker, so three
  // hits mean the build above really ran four partitions.
  FaultInjectionOptions count_only;
  count_only.probability_ppm = 0;
  ScopedFaultInjection armed(count_only);
  const BuildCase& c = SplitCase();
  BuildRankedTree(c.db, c.order, nullptr, 4);
  EXPECT_EQ(FaultInjector::Instance().SiteCounts()["threadpool.spawn"].first,
            3u);
}

TEST(TreeBuildTest, AnySplitOfTheBucketsSealsToTheSameTree) {
  // SealParts directly, over splits BuildRankedTree would not choose:
  // buckets dealt round-robin to k builders and inserted in descending
  // rank order, so no builder creates its nodes in ts order.
  for (const BuildCase& c : BuildCases()) {
    const SealedArrays want = ArraysOf(SequentialBuild(c));
    const std::vector<uint32_t> rank_of = RankOf(c);
    const std::vector<Transaction>& txns = c.db.transactions();
    std::vector<std::vector<uint32_t>> ranks(txns.size());
    std::map<uint32_t, std::vector<size_t>, std::greater<>> buckets;
    for (size_t t = 0; t < txns.size(); ++t) {
      ranks[t] = RanksOf(txns[t], rank_of);
      if (!ranks[t].empty()) buckets[ranks[t][0]].push_back(t);
    }
    for (uint32_t k : {1u, 2u, 3u, 5u}) {
      std::vector<TsPrefixTree::Builder> parts(
          k, TsPrefixTree::Builder(c.order));
      std::vector<TsPrefixTree::CreatedNodes> created(txns.size());
      for (const auto& [bucket, members] : buckets) {
        const uint32_t p = bucket % k;
        for (size_t t : members) {
          const uint32_t first = parts[p].num_nodes();
          parts[p].InsertTransaction(ranks[t], txns[t].ts);
          created[t] = {p, first, parts[p].num_nodes() - first};
        }
      }
      TsPrefixTree tree = TsPrefixTree::SealParts(parts, created);
      tree.FillRankLists(txns, rank_of);
      EXPECT_EQ(ArraysOf(tree), want) << c.name << " k=" << k;
    }
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

// --- Governed parallel build: four partitions on worker threads -----------

TEST(TreeBuildTest, ParallelBuildLatchedCancelInsertsNothing) {
  const BuildCase& c = SplitCase();
  CancellationToken cancel;
  cancel.Cancel();
  QueryBudget budget(ResourceLimits{}, &cancel);
  budget.Probe();
  const TsPrefixTree tree = BuildRankedTree(c.db, c.order, &budget, 4);
  EXPECT_EQ(budget.stop_reason(), StopReason::kCancelled);
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_EQ(tree.TimestampCount(), 0u);
  EXPECT_FALSE(tree.has_rank_lists());  // A stopped build has none.
}

TEST(TreeBuildTest, ParallelBuildOneByteBudgetStops) {
  const BuildCase& c = SplitCase();
  ResourceLimits limits;
  limits.memory_budget_bytes = 1;
  QueryBudget budget(limits, nullptr);
  const TsPrefixTree tree = BuildRankedTree(c.db, c.order, &budget, 4);
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemory);
  EXPECT_LT(tree.TimestampCount(), c.db.size());
  EXPECT_FALSE(tree.has_rank_lists());
  // The tripping bytes were reported before the stop.
  EXPECT_GT(budget.usage().tracked_bytes_peak, 0u);
}

TEST(TreeBuildTest, ParallelBuildAllocFaultIsResourceExhausted) {
  // Fail the last node creation of the build, in whichever partition
  // makes it: the query fails cleanly and caches nothing.
  const BuildCase& c = SplitCase();
  const size_t nodes = SequentialBuild(c).NodeCount();
  RpParams params;
  params.period = 1440;
  params.min_ps = 15;
  params.min_rec = 1;
  engine::Query query;
  query.params = params;
  engine::QuerySession session(engine::DatasetSnapshot::Create(c.db));
  {
    FaultInjectionOptions inject;
    inject.site_filter = "rptree.alloc";
    inject.fire_on_nth = nodes;
    ScopedFaultInjection armed(inject);
    Result<engine::QueryResult> run =
        session.Run(query, engine::BackendKind::kParallel, {4});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->status.IsResourceExhausted()) << run->status.ToString();
    EXPECT_TRUE(run->patterns.empty());
    EXPECT_EQ(FaultInjector::Instance().fires(), 1u);
  }
  EXPECT_EQ(session.planner().cache_size(), 0u);
  EXPECT_EQ(session.tree_builds(), 0u);
  // Disarmed, the same session builds, caches and mines.
  Result<engine::QueryResult> rerun =
      session.Run(query, engine::BackendKind::kParallel, {4});
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(rerun->status.ok());
  EXPECT_EQ(rerun->stats.initial_tree_nodes, nodes);
  EXPECT_EQ(session.tree_builds(), 1u);
}

TEST(TreeBuildTest, ParallelBuildSpawnFailureYieldsTheSameTree) {
  // No worker thread starts: the calling thread builds all four
  // partitions, and the sealed tree is unchanged.
  const BuildCase& c = SplitCase();
  const SealedArrays want = ArraysOf(SequentialBuild(c));
  FaultInjectionOptions inject;
  inject.site_filter = "threadpool.spawn";
  inject.probability_ppm = 1000000;
  ScopedFaultInjection armed(inject);
  EXPECT_EQ(ArraysOf(BuildRankedTree(c.db, c.order, nullptr, 4)), want);
  // ParallelFor stops starting workers at the first refused spawn.
  EXPECT_EQ(FaultInjector::Instance().fires(), 1u);
}

// --- Rank lists: each top-level rank's sorted TS^item ----------------------

/// The sorted merge of `rank`'s nodes' accumulated lists.
TimestampList MergedNodeLists(const TsPrefixTree& tree, size_t rank) {
  TimestampList merged;
  for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
    const std::span<const Timestamp> ts = tree.ListOf(n);
    merged.insert(merged.end(), ts.begin(), ts.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

/// Every rank list equals its nodes' merged lists and TS^item of `db`
/// restricted to timestamps >= `cutoff`.
void ExpectRankListsExact(const TsPrefixTree& tree,
                          const TransactionDatabase& db, Timestamp cutoff,
                          const std::string& context) {
  ASSERT_TRUE(tree.has_rank_lists()) << context;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(tree.RankList(rank), MergedNodeLists(tree, rank))
        << context << " rank " << rank;
    TimestampList want = db.TimestampsOf({tree.ItemAtRank(rank)});
    std::erase_if(want, [cutoff](Timestamp t) { return t < cutoff; });
    EXPECT_EQ(tree.RankList(rank), want) << context << " rank " << rank;
  }
}

TransactionDatabase RankListDb(uint64_t seed) {
  testing::RandomDbSpec spec;
  spec.num_items = 9;
  spec.num_timestamps = 240;
  spec.item_base_prob = 0.3;
  return testing::MakeRandomDb(spec, seed);
}

TEST(RankListTest, PaperTreeListsAreEachItemsTimestamps) {
  TsPrefixTree tree = BuildPaperTree();
  EXPECT_FALSE(tree.has_rank_lists());  // A builder alone fills none.
  // Table 1's candidate projections; item id = rank (A..F are 0..5).
  const std::vector<Transaction> txns = {
      {1, {A, B}},          {2, {A, C, D}},    {3, {A, B, E, F}},
      {4, {A, B, C, D}},    {5, {C, D, E, F}}, {6, {E, F}},
      {7, {A, B, C}},       {9, {C, D}},       {10, {C, D, E, F}},
      {11, {A, B, E, F}},   {12, {A, B, C, D, E, F}},
      {14, {A, B}},
  };
  tree.FillRankLists(txns, std::vector<uint32_t>{0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(tree.has_rank_lists());
  EXPECT_EQ(tree.RankList(0), (TimestampList{1, 2, 3, 4, 7, 11, 12, 14}));
  EXPECT_EQ(tree.RankList(1), (TimestampList{1, 3, 4, 7, 11, 12, 14}));
  EXPECT_EQ(tree.RankList(2), (TimestampList{2, 4, 5, 7, 9, 10, 12}));
  EXPECT_EQ(tree.RankList(3), (TimestampList{2, 4, 5, 9, 10, 12}));
  EXPECT_EQ(tree.RankList(4), (TimestampList{3, 5, 6, 10, 11, 12}));
  EXPECT_EQ(tree.RankList(5), (TimestampList{3, 5, 6, 10, 11, 12}));
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(tree.RankList(rank), MergedNodeLists(tree, rank));
  }
}

TEST(RankListTest, RandomBuildsMatchMergedNodeLists) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const TransactionDatabase db = RankListDb(seed);
    RpParams params;
    params.period = 2 + static_cast<Timestamp>(seed % 4);
    params.min_ps = 1 + seed % 3;
    params.min_rec = 1;
    const PreparedMining prepared = PrepareMining(db, params);
    ExpectRankListsExact(prepared.tree, db,
                         std::numeric_limits<Timestamp>::min(),
                         "seed " + std::to_string(seed));
  }
}

TEST(RankListTest, RetireBeforeTrimsEachListsExpiredPrefix) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const TransactionDatabase db = RankListDb(seed);
    RpParams params;
    params.period = 3;
    params.min_ps = 1;
    params.min_rec = 1;
    const PreparedMining prepared = PrepareMining(db, params);
    TsPrefixTree tree = prepared.tree.Clone();
    // Cutoffs before, inside and past the stored timestamps.
    const Timestamp span = db.end_ts() - db.start_ts();
    for (Timestamp cutoff :
         {db.start_ts() - 1, db.start_ts() + span / 3,
          db.start_ts() + span / 2, db.end_ts(), db.end_ts() + 1}) {
      const size_t bytes_before = tree.ApproxBytes();
      tree.RetireBefore(cutoff);
      const std::string context =
          "seed " + std::to_string(seed) + " cutoff " + std::to_string(cutoff);
      ExpectRankListsExact(tree, db, cutoff, context);
      EXPECT_LE(tree.ApproxBytes(), bytes_before) << context;
    }
    EXPECT_EQ(tree.ApproxBytes(), 0u) << "seed " << seed;
  }
}

TEST(RankListTest, CloneCopiesListsAndApproxBytesCountsThem) {
  const TransactionDatabase db = BuildDb(3);
  const PreparedMining prepared = PrepareMining(db, BuildDbParams());
  const TsPrefixTree& tree = prepared.tree;
  const TsPrefixTree clone = tree.Clone();
  ASSERT_TRUE(clone.has_rank_lists());
  size_t list_timestamps = 0;
  for (size_t rank = 0; rank < tree.num_ranks(); ++rank) {
    EXPECT_EQ(clone.RankList(rank), tree.RankList(rank)) << "rank " << rank;
    list_timestamps += tree.RankList(rank).size();
  }
  ASSERT_GT(list_timestamps, tree.TimestampCount());
  EXPECT_EQ(clone.ApproxBytes(), tree.ApproxBytes());

  // The same inserts sealed without rank lists: the footprints differ by
  // exactly 8 bytes per rank-list timestamp.
  std::vector<uint32_t> rank_of(db.ItemUniverseSize(), kNotCandidate);
  for (uint32_t rank = 0; rank < prepared.items_by_rank.size(); ++rank) {
    rank_of[prepared.items_by_rank[rank]] = rank;
  }
  TsPrefixTree::Builder builder(prepared.items_by_rank);
  std::vector<uint32_t> ranks;
  for (const Transaction& tr : db.transactions()) {
    ranks.clear();
    for (ItemId item : tr.items) {
      if (rank_of[item] != kNotCandidate) ranks.push_back(rank_of[item]);
    }
    std::sort(ranks.begin(), ranks.end());
    builder.InsertTransaction(ranks, tr.ts);
  }
  TsPrefixTree bare = std::move(builder).Seal();
  EXPECT_EQ(Snapshot(bare), Snapshot(tree));
  EXPECT_EQ(tree.ApproxBytes(),
            bare.ApproxBytes() + list_timestamps * sizeof(Timestamp));
  bare.FillRankLists(db.transactions(), rank_of);
  EXPECT_EQ(bare.ApproxBytes(), tree.ApproxBytes());
}

// --- Differential layout test: sealed tree vs explicit push-up -------------

/// Reference RP-tree as the paper describes it: pointer-linked nodes with
/// one ts-list each, rank chains in creation order, and Lemma 3's push-up
/// run explicitly after each rank is read.
class PushUpTree {
 public:
  explicit PushUpTree(size_t num_ranks) : chains_(num_ranks), nodes_(1) {}

  void Insert(const std::vector<uint32_t>& ranks,
              std::span<const Timestamp> ts) {
    if (ranks.empty()) return;
    size_t node = 0;
    for (uint32_t rank : ranks) {
      auto found = nodes_[node].children.find(rank);
      if (found != nodes_[node].children.end()) {
        node = found->second;
        continue;
      }
      const size_t child = nodes_.size();
      nodes_[node].children.emplace(rank, child);
      nodes_.push_back(Node{rank, node, {}, {}});
      chains_[rank].push_back(child);
      node = child;
    }
    nodes_[node].ts.insert(nodes_[node].ts.end(), ts.begin(), ts.end());
  }

  /// (path, list) of each live node of `rank`, in chain order.
  Chain ChainOf(size_t rank) const {
    Chain chain;
    for (size_t n : chains_[rank]) {
      if (!nodes_[n].live) continue;
      std::vector<uint32_t> path;
      for (size_t a = nodes_[n].parent; a != 0; a = nodes_[a].parent) {
        path.insert(path.begin(), nodes_[a].rank);
      }
      chain.emplace_back(path, nodes_[n].ts);
    }
    return chain;
  }

  /// Algorithm 4 line 9: append every list of `rank` to its parent's and
  /// detach the nodes (the root discards what reaches it).
  void PushUp(size_t rank) {
    for (size_t n : chains_[rank]) {
      if (!nodes_[n].live) continue;
      const size_t parent = nodes_[n].parent;
      if (parent != 0) {
        nodes_[parent].ts.insert(nodes_[parent].ts.end(),
                                 nodes_[n].ts.begin(), nodes_[n].ts.end());
      }
      Detach(n);
    }
  }

  /// The pre-sealing sweep: filter every list, then detach empty childless
  /// nodes deepest rank first, so emptied prefixes cascade.
  TsPrefixTree::RetireStats Retire(Timestamp cutoff) {
    TsPrefixTree::RetireStats stats;
    for (Node& node : nodes_) {
      if (!node.live) continue;
      const size_t before = node.ts.size();
      std::erase_if(node.ts, [cutoff](Timestamp t) { return t < cutoff; });
      stats.timestamps_retired += before - node.ts.size();
    }
    for (size_t rank = chains_.size(); rank-- > 0;) {
      for (size_t n : chains_[rank]) {
        if (nodes_[n].live && nodes_[n].ts.empty() &&
            nodes_[n].children.empty()) {
          Detach(n);
          ++stats.nodes_retired;
        }
      }
    }
    return stats;
  }

  size_t NodeCount() const {
    size_t count = 0;
    for (size_t n = 1; n < nodes_.size(); ++n) count += nodes_[n].live;
    return count;
  }

  size_t TimestampCount() const {
    size_t count = 0;
    for (size_t n = 1; n < nodes_.size(); ++n) {
      if (nodes_[n].live) count += nodes_[n].ts.size();
    }
    return count;
  }

 private:
  struct Node {
    uint32_t rank = 0;
    size_t parent = 0;
    std::map<uint32_t, size_t> children;
    TimestampList ts;
    bool live = true;
  };

  void Detach(size_t n) {
    nodes_[n].live = false;
    nodes_[nodes_[n].parent].children.erase(nodes_[n].rank);
  }

  std::vector<std::vector<size_t>> chains_;
  std::vector<Node> nodes_;  // [0] is the root.
};

/// Walks `sealed` bottom-up against `ref`: at every rank, the chain order,
/// every node's ancestor ranks and its accumulated list must equal what
/// explicit push-up has produced by then.
void ExpectSameBottomUp(const TsPrefixTree& sealed, PushUpTree ref,
                        const std::string& context) {
  ASSERT_EQ(sealed.NodeCount(), ref.NodeCount()) << context;
  ASSERT_EQ(sealed.TimestampCount(), ref.TimestampCount()) << context;
  for (size_t rank = sealed.num_ranks(); rank-- > 0;) {
    Chain got;
    for (uint32_t n = sealed.RankBegin(rank); n < sealed.RankEnd(rank); ++n) {
      EXPECT_EQ(sealed.LinkOf(n).rank, rank) << context;
      got.emplace_back(PathOf(sealed, n), ListOf(sealed, n));
    }
    EXPECT_EQ(got, ref.ChainOf(rank)) << context << " rank " << rank;
    ref.PushUp(rank);
  }
}

/// One insert of a random sequence: a rank path and the list it carries.
struct InsertOp {
  std::vector<uint32_t> ranks;
  TimestampList ts;
};

/// Random InsertPath sequences: repeated paths, empty paths, empty lists,
/// and lists made of several sorted runs.
std::vector<InsertOp> RandomPathOps(std::mt19937_64& rng, size_t num_ranks) {
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<Timestamp> value(0, 60);
  const size_t count = 1 + rng() % 40;
  std::vector<InsertOp> ops;
  for (size_t i = 0; i < count; ++i) {
    InsertOp op;
    if (!ops.empty() && percent(rng) < 30) {
      op.ranks = ops[rng() % ops.size()].ranks;
    } else {
      for (uint32_t r = 0; r < num_ranks; ++r) {
        if (percent(rng) < 35) op.ranks.push_back(r);
      }
    }
    if (percent(rng) >= 15) {
      const size_t runs = 1 + rng() % 3;
      for (size_t k = 0; k < runs; ++k) {
        TimestampList run(1 + rng() % 4);
        for (Timestamp& t : run) t = value(rng);
        std::sort(run.begin(), run.end());
        op.ts.insert(op.ts.end(), run.begin(), run.end());
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Random transactions in ascending timestamp order.
std::vector<InsertOp> RandomTransactionOps(std::mt19937_64& rng,
                                           size_t num_ranks) {
  std::uniform_int_distribution<int> percent(0, 99);
  const size_t count = 1 + rng() % 60;
  std::vector<InsertOp> ops;
  Timestamp ts = 0;
  for (size_t i = 0; i < count; ++i) {
    InsertOp op;
    for (uint32_t r = 0; r < num_ranks; ++r) {
      if (percent(rng) < 40) op.ranks.push_back(r);
    }
    ts += 1 + static_cast<Timestamp>(rng() % 3);
    op.ts = {ts};
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Builds the sealed tree and the reference from the same inserts.
std::pair<TsPrefixTree, PushUpTree> BuildBoth(const std::vector<InsertOp>& ops,
                                             size_t num_ranks,
                                             bool as_transactions) {
  std::vector<ItemId> items(num_ranks);
  for (size_t r = 0; r < num_ranks; ++r) items[r] = static_cast<ItemId>(r);
  TsPrefixTree::Builder builder(items);
  PushUpTree ref(num_ranks);
  for (const InsertOp& op : ops) {
    if (as_transactions) {
      builder.InsertTransaction(op.ranks, op.ts.front());
    } else {
      builder.InsertPath(op.ranks, op.ts);
    }
    ref.Insert(op.ranks, op.ts);
  }
  return {std::move(builder).Seal(), std::move(ref)};
}

TEST(SealedLayoutTest, RandomPathsMatchExplicitPushUp) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t num_ranks = 1 + rng() % 8;
    const std::vector<InsertOp> ops = RandomPathOps(rng, num_ranks);
    auto [sealed, ref] = BuildBoth(ops, num_ranks, false);
    ExpectSameBottomUp(sealed, std::move(ref), "seed " + std::to_string(seed));
  }
}

TEST(SealedLayoutTest, RandomMixedInsertsMatchExplicitPushUp) {
  // Half the non-empty lists go in as one copied transaction per
  // timestamp, the rest as borrowed path lists (an empty list still
  // creates its path's nodes), and repeated paths mix both at one node:
  // every node's list keeps the call order.
  for (uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t num_ranks = 1 + rng() % 8;
    const std::vector<InsertOp> ops = RandomPathOps(rng, num_ranks);
    std::vector<ItemId> items(num_ranks);
    for (size_t r = 0; r < num_ranks; ++r) items[r] = static_cast<ItemId>(r);
    TsPrefixTree::Builder builder(items);
    PushUpTree ref(num_ranks);
    for (const InsertOp& op : ops) {
      if (!op.ts.empty() && rng() % 2 == 0) {
        for (Timestamp t : op.ts) builder.InsertTransaction(op.ranks, t);
      } else {
        builder.InsertPath(op.ranks, op.ts);
      }
      ref.Insert(op.ranks, op.ts);
    }
    ExpectSameBottomUp(std::move(builder).Seal(), std::move(ref),
                       "seed " + std::to_string(seed));
  }
}

TEST(SealedLayoutTest, RandomTransactionsMatchExplicitPushUp) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t num_ranks = 1 + rng() % 8;
    const std::vector<InsertOp> ops = RandomTransactionOps(rng, num_ranks);
    auto [sealed, ref] = BuildBoth(ops, num_ranks, true);
    ExpectSameBottomUp(sealed, std::move(ref), "seed " + std::to_string(seed));
  }
}

TEST(SealedLayoutTest, RetireBeforeMatchesReferenceSweep) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t num_ranks = 1 + rng() % 8;
    const bool as_transactions = seed % 2 == 0;
    const std::vector<InsertOp> ops =
        as_transactions ? RandomTransactionOps(rng, num_ranks)
                        : RandomPathOps(rng, num_ranks);
    auto [sealed, ref] = BuildBoth(ops, num_ranks, as_transactions);
    // Two successive sweeps at random (non-decreasing) cutoffs, which may
    // fall before, inside or past the stored timestamps.
    Timestamp cutoff = static_cast<Timestamp>(rng() % 40) - 5;
    for (int sweep = 0; sweep < 2; ++sweep) {
      const std::string context = "seed " + std::to_string(seed) +
                                  " cutoff " + std::to_string(cutoff);
      const TsPrefixTree::RetireStats got = sealed.RetireBefore(cutoff);
      const TsPrefixTree::RetireStats want = ref.Retire(cutoff);
      EXPECT_EQ(got.timestamps_retired, want.timestamps_retired) << context;
      EXPECT_EQ(got.nodes_retired, want.nodes_retired) << context;
      ExpectSameBottomUp(sealed, ref, context);
      cutoff += static_cast<Timestamp>(rng() % 30);
    }
  }
}

}  // namespace
}  // namespace rpm
