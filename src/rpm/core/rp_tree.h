// RP-tree: a prefix tree over rank-ordered items whose nodes carry
// timestamp lists (ts-lists) at the deepest node of each inserted
// transaction (Sec. 4.2.1, Figures 3 and 5).
//
// Unlike an FP-tree there is no per-node support count; all frequency *and*
// periodicity information lives in the ts-lists (the paper's tail nodes).
// Mining proceeds bottom-up: after the lowest-ranked item is processed its
// ts-lists are pushed up to the parents (Lemma 3), which makes the next
// item's nodes complete in turn.
//
// The structure is shared by RP-growth and the PF-growth++ baseline; the
// two differ only in the measures/pruning applied to collected ts-lists.

#ifndef RPM_CORE_RP_TREE_H_
#define RPM_CORE_RP_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rpm/core/arena.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Prefix tree keyed by item *rank* (0 = first item of the tree's order).
/// Owns its nodes via an arena (bump-allocated, bulk-freed with the tree);
/// not copyable (mining mutates it in place) — repeated mining over one
/// build goes through Clone().
class TsPrefixTree {
 public:
  struct Node {
    uint32_t rank = 0;
    /// Dense per-tree creation index (root = 0). Lets Clone() map
    /// original nodes to copies through a flat vector instead of a hash
    /// map; lives in the padding after `rank`, so it costs no space.
    uint32_t seq = 0;
    Node* parent = nullptr;
    Node* next_link = nullptr;  // Chain of nodes with the same rank.
    /// Children as an intrusive singly-linked sibling list (no per-node
    /// child vector to allocate), kept in access order: inserts move the
    /// child they step through to the front. Nothing reads sibling order
    /// (DESIGN.md §8.3); chains and ts-lists carry every observable.
    Node* first_child = nullptr;
    Node* next_sibling = nullptr;
    /// Timestamps of transactions whose deepest item is this node
    /// (plus any lists pushed up from removed descendants). Not globally
    /// sorted after push-up, but always a concatenation of sorted runs:
    /// transactions insert in ascending timestamp order and push-up /
    /// InsertPath only append whole lists, so consumers recover the
    /// sorted union with the run-aware merge kernel (ts_merge.h) instead
    /// of re-sorting.
    TimestampList ts_list;
  };

  /// `items_by_rank[r]` is the ItemId occupying rank r.
  explicit TsPrefixTree(std::vector<ItemId> items_by_rank);

  TsPrefixTree(const TsPrefixTree&) = delete;
  TsPrefixTree& operator=(const TsPrefixTree&) = delete;
  TsPrefixTree(TsPrefixTree&&) = default;
  TsPrefixTree& operator=(TsPrefixTree&&) = default;

  size_t num_ranks() const { return items_by_rank_.size(); }
  ItemId ItemAtRank(size_t rank) const { return items_by_rank_[rank]; }
  const std::vector<ItemId>& items_by_rank() const { return items_by_rank_; }

  /// Inserts one transaction: `ranks` sorted ascending, duplicate-free.
  /// Appends `ts` to the ts-list of the deepest node (Algorithm 3).
  /// No-op for an empty rank set.
  void InsertTransaction(const std::vector<uint32_t>& ranks, Timestamp ts);

  /// Inserts a whole prefix path carrying an accumulated ts-list
  /// (conditional-tree construction). Lists of coinciding paths merge.
  void InsertPath(const std::vector<uint32_t>& ranks,
                  std::span<const Timestamp> ts_list);

  /// Head of the node-link chain for `rank` (nullptr when absent).
  const Node* HeadOfRank(size_t rank) const { return heads_[rank]; }

  /// Visits every node of `rank`: fn(path, ts_list) where `path` holds the
  /// ancestor ranks in ascending order (root side first), excluding `rank`
  /// itself. The ts_list reference stays valid until the next mutation.
  /// `path` is ONE buffer reused across callbacks — callers that keep
  /// paths must copy the contents (miners append them to a flat slab
  /// rather than cloning a vector per node).
  template <typename Fn>
  void ForEachNodeOfRank(size_t rank, Fn&& fn) const {
    std::vector<uint32_t> path;
    for (const Node* n = heads_[rank]; n != nullptr; n = n->next_link) {
      path.clear();
      for (const Node* a = n->parent; a != root_; a = a->parent) {
        path.push_back(a->rank);
      }
      std::reverse(path.begin(), path.end());
      fn(path, n->ts_list);
    }
  }

  /// Pushes every ts-list of `rank` to the respective parent and detaches
  /// the nodes (Algorithm 4 line 9 / Lemma 3). After this, HeadOfRank(rank)
  /// is nullptr. Precondition: all deeper ranks were already removed.
  /// Never writes a node's `parent` or `rank`: a detached node's ancestor
  /// path stays readable until the tree dies (ProjectSuffixItems relies
  /// on this).
  void PushUpAndRemove(size_t rank);

  /// Deep copy into a fresh arena. Node-link chains are reproduced in the
  /// original chain order, so mining the clone collects every conditional
  /// pattern base in exactly the order the original would — outputs AND
  /// schedule-invariant counters are bit-identical. O(nodes + timestamps);
  /// much cheaper than re-scanning the database, which is what makes a
  /// build-once/mine-many query engine pay off. Safe to call concurrently
  /// from several threads on the same (unmutated) tree.
  TsPrefixTree Clone() const;

  /// Outcome of a RetireBefore sweep.
  struct RetireStats {
    size_t timestamps_retired = 0;
    size_t nodes_retired = 0;
  };

  /// Retires every timestamp < `cutoff` from all ts-lists, then detaches
  /// nodes left with no timestamps and no live children — the lazy
  /// expiry sweep of the windowed miner (DESIGN.md §9). Filtering keeps
  /// relative order, so each surviving list is still a concatenation of
  /// sorted runs and node-link chains keep their original order (the
  /// determinism contract of Clone). Like PushUpAndRemove,
  /// retired nodes stay in the arena until the tree dies; the windowed
  /// miner's per-delta trees are transient, so the slabs are reclaimed at
  /// the end of every delta, and long-lived trees are rebuilt by its
  /// compaction policy instead of being retired in place forever.
  RetireStats RetireBefore(Timestamp cutoff);

  /// Number of live nodes, excluding the root (Lemma 2's size measure).
  size_t NodeCount() const { return live_nodes_; }

  /// Timestamps currently stored across all ts-lists.
  size_t TimestampCount() const { return timestamp_count_; }

  /// Approximate live footprint in bytes: nodes plus stored timestamps,
  /// maintained by O(1) counters. This is what query memory budgets
  /// account against (transient per-path buffers are excluded — see
  /// DESIGN.md §7.2).
  size_t ApproxBytes() const {
    return live_nodes_ * sizeof(Node) + timestamp_count_ * sizeof(Timestamp);
  }

  bool empty() const { return live_nodes_ == 0; }

 private:
  Node* GetOrCreateChild(Node* parent, uint32_t rank);

  std::vector<ItemId> items_by_rank_;
  Arena<Node> arena_;  // Stable addresses; owns root_ and all nodes.
  Node* root_ = nullptr;
  std::vector<Node*> heads_;
  std::vector<Node*> chain_tails_;  // O(1) chain append.
  size_t live_nodes_ = 0;
  size_t timestamp_count_ = 0;  // Timestamps across all live ts-lists.
  uint32_t next_seq_ = 0;  // Next Node::seq (never reused after push-up).
};

}  // namespace rpm

#endif  // RPM_CORE_RP_TREE_H_
