// RP-tree: a prefix tree over rank-ordered items whose nodes carry
// timestamp lists (ts-lists) at the deepest node of each inserted
// transaction (Sec. 4.2.1, Figures 3 and 5).
//
// Unlike an FP-tree there is no per-node support count; all frequency *and*
// periodicity information lives in the ts-lists (the paper's tail nodes).
// Mining proceeds bottom-up, and the paper makes each item's nodes complete
// by pushing the ts-lists of the item below up to the parents (Lemma 3).
//
// A tree is built with TsPrefixTree::Builder and then sealed into an
// immutable, rank-major form. Sealing counting-sorts the nodes by rank
// (first-touch order within a rank, i.e. node-link chain order) and lays
// every timestamp out in ONE slab in pre-order: a node's own list first,
// then its children's subtrees in descending rank. Ranks are mined in
// descending order and siblings have distinct ranks, so the list Lemma 3's
// push-up would have built by the time a node's rank is mined is exactly the
// node's slab range. Push-up is therefore implicit: mining reads the sealed
// tree and never changes it, so any number of miners (parallel workers,
// concurrent queries over one cached build) can share one tree.
//
// A top-level tree is built one first-rank bucket at a time: a
// transaction only touches the root subtree of its lowest rank, and root
// subtrees share no node, so several builders may each fill whole buckets
// (on separate threads) and SealParts lays them out as one tree. Chain
// order stays first-touch order over the transactions in ts order — what a
// single builder inserting them one by one would create — because each
// builder records which nodes every insert created, and sealing orders the
// nodes by (creating transaction, creation). The sealed tree is therefore
// the same whatever the split.
//
// A top-level tree also carries each rank's sorted TS^item (RankList),
// filled after sealing by one projection pass over the transactions, so the
// miner reads a 1-item's list instead of merging its nodes' slab ranges.
//
// The structure is shared by RP-growth and the PF-growth++ baseline; the
// two differ only in the measures/pruning applied to collected ts-lists.

#ifndef RPM_CORE_RP_TREE_H_
#define RPM_CORE_RP_TREE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "rpm/timeseries/types.h"

namespace rpm {

/// Sealed prefix tree keyed by item *rank* (0 = first item of the tree's
/// order). Nodes are addressed by dense indices, grouped by rank: the
/// nodes of rank r are [RankBegin(r), RankEnd(r)), in chain (first-touch)
/// order. Immutable except for FillRankLists and RetireBefore; not
/// implicitly copyable.
class TsPrefixTree {
 public:
  /// Parent index of a root child (the root itself is not stored).
  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

  /// A node's place in the tree. Parents always have a lower rank, hence a
  /// lower index, than their children.
  struct Link {
    uint32_t parent = kNoParent;
    uint32_t rank = 0;
  };

  /// Mutable build phase (Algorithms 2-3 and conditional-tree
  /// construction). Nodes are 16-byte index records; each node's own
  /// timestamps are recorded in insertion order and only laid out by
  /// Seal(). A transaction's timestamp is copied into the builder; a
  /// path's list is borrowed and copied once, straight into the sealed
  /// slab.
  class Builder {
   public:
    /// `items_by_rank[r]` is the ItemId occupying rank r.
    explicit Builder(std::vector<ItemId> items_by_rank);

    /// Inserts one transaction: `ranks` sorted ascending, duplicate-free.
    /// Records `ts` at the deepest node (Algorithm 3). No-op for an empty
    /// rank set. The nodes the insert creates are the next ones in
    /// creation order: [num_nodes() before, num_nodes() after).
    void InsertTransaction(const std::vector<uint32_t>& ranks, Timestamp ts);

    /// Reserves room for `nodes` more nodes and `inserts` more
    /// InsertTransaction calls, so the buffers are allocated once.
    void Reserve(size_t nodes, size_t inserts);

    /// Nodes created so far, counting the root as node 0.
    uint32_t num_nodes() const {
      return static_cast<uint32_t>(nodes_.size());
    }

    /// Inserts a whole prefix path carrying an accumulated ts-list
    /// (conditional-tree construction). Lists of coinciding paths, and
    /// transactions ending at the same node, concatenate in insertion
    /// order. The builder records only where `ts_list` is: its storage
    /// must stay valid and unchanged until Seal() returns.
    void InsertPath(const std::vector<uint32_t>& ranks,
                    std::span<const Timestamp> ts_list);

    /// Bytes of the builder's node records, recorded timestamps and
    /// borrowed-list records (not the borrowed lists themselves).
    size_t ApproxBytes() const {
      return nodes_.size() * sizeof(Node) + runs_.size() * sizeof(OwnRun) +
             own_ts_.size() * sizeof(Timestamp) +
             borrowed_.size() * sizeof(borrowed_[0]);
    }

    /// Lays the tree out in its sealed form, chains in creation order, and
    /// releases the builder's buffers. O(nodes + timestamps).
    TsPrefixTree Seal() &&;

   private:
    friend class TsPrefixTree;

    /// Children form a singly-linked sibling list kept in access order:
    /// inserts move the child they step through to the front. Nothing
    /// reads sibling order (DESIGN.md §8.3); chain order is first-touch
    /// order (Seal: creation order; SealParts: the recorded ranges).
    struct Node {
      uint32_t rank = 0;
      uint32_t parent = 0;
      uint32_t first_child = 0;  // 0 = none (the root is never a child).
      uint32_t next_sibling = 0;
    };
    /// `len` timestamps of own_ts_, recorded at builder node `node`; a
    /// `len` of 0 stands for the next list of borrowed_ instead. Runs are
    /// kept in insertion order, so a node's copied and borrowed lists
    /// keep their order too.
    struct OwnRun {
      uint32_t node = 0;
      uint32_t len = 0;
    };

    uint32_t Descend(const std::vector<uint32_t>& ranks);
    uint32_t GetOrCreateChild(uint32_t parent, uint32_t rank);

    /// Calls emit(base + node - 1, timestamps) for every run, in insertion
    /// order: builder node b >= 1 is layout input base + b - 1.
    template <typename Emit>
    void ForEachOwn(size_t base, Emit&& emit) const;
    void Release();

    std::vector<ItemId> items_by_rank_;
    std::vector<Node> nodes_;  // [0] is the root.
    std::vector<OwnRun> runs_;
    TimestampList own_ts_;
    std::vector<std::span<const Timestamp>> borrowed_;  // InsertPath lists.
  };

  /// The nodes one top-level insert created: builder `part`'s nodes
  /// [first, first + count), in creation order.
  struct CreatedNodes {
    uint32_t part = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  /// Seals builders over one candidate order whose root subtrees are
  /// disjoint (each holds whole first-rank buckets of one transaction set)
  /// into one tree; nothing is merged. `first_touch` names every non-root
  /// node of every part exactly once, in the order one builder inserting
  /// the same transactions in ts order would have created them (entries
  /// with count 0 are skipped), and that order becomes chain order. Own
  /// lists keep each part's insertion order. Releases the builders'
  /// buffers. O(nodes + timestamps + first_touch entries).
  static TsPrefixTree SealParts(std::span<Builder> parts,
                                std::span<const CreatedNodes> first_touch);

  /// An empty tree over `items_by_rank`.
  explicit TsPrefixTree(std::vector<ItemId> items_by_rank);

  TsPrefixTree(TsPrefixTree&&) = default;
  TsPrefixTree& operator=(TsPrefixTree&&) = default;
  TsPrefixTree& operator=(const TsPrefixTree&) = delete;

  size_t num_ranks() const { return items_by_rank_.size(); }
  ItemId ItemAtRank(size_t rank) const { return items_by_rank_[rank]; }
  const std::vector<ItemId>& items_by_rank() const { return items_by_rank_; }

  /// Node index range of `rank`, in chain order.
  uint32_t RankBegin(size_t rank) const { return rank_begin_[rank]; }
  uint32_t RankEnd(size_t rank) const { return rank_begin_[rank + 1]; }

  const Link& LinkOf(uint32_t node) const { return links_[node]; }
  /// The node's accumulated ts-list: its own timestamps in insertion order
  /// followed by its children's accumulated lists in descending rank — a
  /// concatenation of sorted runs, so consumers recover the sorted union
  /// with the run-aware merge kernel (ts_merge.h) instead of re-sorting.
  std::span<const Timestamp> ListOf(uint32_t node) const {
    return {slab_.data() + spans_[node].begin, spans_[node].len};
  }
  uint32_t ListLength(uint32_t node) const { return spans_[node].len; }

  /// Sorted TS^item of `rank`: the merge of its nodes' lists, i.e. the
  /// timestamps of every inserted transaction holding the rank. Only a
  /// tree given FillRankLists has these (has_rank_lists()); a conditional
  /// tree's ranks get their lists from the level above.
  const TimestampList& RankList(size_t rank) const {
    return rank_lists_[rank];
  }
  bool has_rank_lists() const { return rank_lists_.size() == num_ranks(); }

  /// Fills every rank's list in one projection pass over `transactions`,
  /// the ones the tree was built from, in strictly increasing ts order;
  /// `rank_of` covers every item id and maps it to its rank, or to a value
  /// >= num_ranks() for an item not in the tree. Each list is reserved at
  /// its nodes' summed list length first, so it is allocated once, at its
  /// final size. Call it after Seal(), once the builder's buffers are
  /// freed.
  void FillRankLists(std::span<const Transaction> transactions,
                     std::span<const uint32_t> rank_of);

  /// A plain copy of the sealed arrays and rank lists. Mining never needs
  /// one — every miner reads the tree without changing it.
  TsPrefixTree Clone() const { return TsPrefixTree(*this); }

  /// Outcome of a RetireBefore sweep.
  struct RetireStats {
    size_t timestamps_retired = 0;
    size_t nodes_retired = 0;
  };

  /// Retires every timestamp < `cutoff`, then drops the nodes whose
  /// subtree is left without timestamps — the lazy expiry sweep of the
  /// windowed miner (DESIGN.md §9). Filtering keeps relative order, so
  /// every list stays a concatenation of sorted runs, and survivors keep
  /// their chain order. Re-runs the sealing layout over the survivors and
  /// trims each rank list's expired prefix.
  RetireStats RetireBefore(Timestamp cutoff);

  /// Number of nodes, excluding the root (Lemma 2's size measure).
  size_t NodeCount() const { return links_.size(); }

  /// Timestamps stored in the tree (each appears once in the slab).
  size_t TimestampCount() const { return slab_.size(); }

  /// Sealed footprint in bytes: node links and list spans, the timestamp
  /// slab and the rank lists. This is what query memory budgets account
  /// against (transient per-path buffers are excluded — see DESIGN.md
  /// §7.2).
  size_t ApproxBytes() const;

  bool empty() const { return links_.empty(); }

 private:
  /// A node's accumulated ts-list: slab_[begin, begin + len).
  struct ListSpan {
    uint32_t begin = 0;
    uint32_t len = 0;
  };

  TsPrefixTree(const TsPrefixTree&) = default;

  /// The one sealing routine, shared by Builder::Seal, SealParts and
  /// RetireBefore. `for_each_link(visit)` calls visit(i, link) once for
  /// every input node i in [0, num_nodes), in chain order, where link
  /// holds i's rank and its parent's input index (or kNoParent), and a
  /// parent is visited before its children; `for_each_own(emit)` calls
  /// emit(i, timestamps) for each node's own timestamps, in insertion
  /// order per node. Replaces links_, spans_, slab_ and rank_begin_.
  template <typename ForEachLink, typename ForEachOwn>
  void Layout(size_t num_nodes, ForEachLink for_each_link,
              ForEachOwn for_each_own);

  std::vector<ItemId> items_by_rank_;
  std::vector<uint32_t> rank_begin_;  // num_ranks() + 1 offsets.
  std::vector<Link> links_;
  std::vector<ListSpan> spans_;
  TimestampList slab_;
  std::vector<TimestampList> rank_lists_;  // Empty, or one per rank.
};

}  // namespace rpm

#endif  // RPM_CORE_RP_TREE_H_
