#include "rpm/core/rp_tree.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <new>
#include <vector>

#include "rpm/common/failpoint.h"
#include "rpm/common/logging.h"

namespace rpm {

TsPrefixTree::Builder::Builder(std::vector<ItemId> items_by_rank)
    : items_by_rank_(std::move(items_by_rank)), nodes_(1) {}

uint32_t TsPrefixTree::Builder::GetOrCreateChild(uint32_t parent,
                                                 uint32_t rank) {
  // Move-to-front: a found child is relinked at the head of its sibling
  // list, so the hot children of a wide parent (the root has one child
  // per candidate item) stay a step or two away. Only sibling order
  // changes; node creation, and with it chain order, stays first-touch.
  uint32_t* slot = &nodes_[parent].first_child;
  for (uint32_t c = *slot; c != 0; slot = &nodes_[c].next_sibling, c = *slot) {
    if (nodes_[c].rank != rank) continue;
    if (slot != &nodes_[parent].first_child) {
      *slot = nodes_[c].next_sibling;
      nodes_[c].next_sibling = nodes_[parent].first_child;
      nodes_[parent].first_child = c;
    }
    return c;
  }
  // Same failure surface a real allocation failure would have; the
  // engine layer maps it to kResourceExhausted (DESIGN.md §7.4).
  if (FailpointTriggered("rptree.alloc")) throw std::bad_alloc();
  const uint32_t node = static_cast<uint32_t>(nodes_.size());
  RPM_CHECK(node != kNoParent) << "RP-tree node index overflow";
  nodes_.push_back({rank, parent, 0, nodes_[parent].first_child});
  nodes_[parent].first_child = node;
  return node;
}

uint32_t TsPrefixTree::Builder::Descend(const std::vector<uint32_t>& ranks) {
  uint32_t node = 0;
  for (uint32_t rank : ranks) {
    RPM_DCHECK(rank < items_by_rank_.size());
    RPM_DCHECK(node == 0 || nodes_[node].rank < rank);
    node = GetOrCreateChild(node, rank);
  }
  return node;
}

void TsPrefixTree::Builder::InsertTransaction(
    const std::vector<uint32_t>& ranks, Timestamp ts) {
  if (ranks.empty()) return;
  const uint32_t node = Descend(ranks);
  // Extend the last run only if it is this node's copied run and cannot
  // wrap to 0, the borrowed-list mark.
  if (!runs_.empty() && runs_.back().node == node && runs_.back().len != 0 &&
      runs_.back().len != std::numeric_limits<uint32_t>::max()) {
    ++runs_.back().len;
  } else {
    runs_.push_back({node, 1});
  }
  own_ts_.push_back(ts);
}

void TsPrefixTree::Builder::InsertPath(const std::vector<uint32_t>& ranks,
                                       std::span<const Timestamp> ts_list) {
  if (ranks.empty()) return;
  const uint32_t node = Descend(ranks);
  if (ts_list.empty()) return;
  runs_.push_back({node, 0});
  borrowed_.push_back(ts_list);
}

TsPrefixTree::TsPrefixTree(std::vector<ItemId> items_by_rank)
    : items_by_rank_(std::move(items_by_rank)),
      rank_begin_(items_by_rank_.size() + 1, 0) {}

template <typename LinkAt, typename ForEachOwn>
void TsPrefixTree::Layout(size_t num_nodes, LinkAt link_at,
                          ForEachOwn for_each_own) {
  const size_t nranks = items_by_rank_.size();
  // Counting sort by rank, stable in creation order: each rank's nodes
  // come out in chain order.
  rank_begin_.assign(nranks + 1, 0);
  for (size_t i = 0; i < num_nodes; ++i) ++rank_begin_[link_at(i).rank + 1];
  for (size_t r = 0; r < nranks; ++r) rank_begin_[r + 1] += rank_begin_[r];
  std::vector<uint32_t> index_of(num_nodes);
  std::vector<uint32_t> cursor(rank_begin_.begin(), rank_begin_.end() - 1);
  for (size_t i = 0; i < num_nodes; ++i) {
    index_of[i] = cursor[link_at(i).rank]++;
  }
  links_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    const Link link = link_at(i);
    links_[index_of[i]] = {
        link.parent == kNoParent ? kNoParent : index_of[link.parent],
        link.rank};
  }

  // Accumulated lengths, children before parents: a child's rank, hence
  // its index, is always higher than its parent's.
  spans_.assign(num_nodes, ListSpan{});
  size_t total = 0;
  for_each_own([&](size_t i, std::span<const Timestamp> ts) {
    spans_[index_of[i]].len += static_cast<uint32_t>(ts.size());
    total += ts.size();
  });
  RPM_CHECK(total <= std::numeric_limits<uint32_t>::max())
      << "RP-tree timestamp slab overflow";
  for (size_t n = num_nodes; n-- > 0;) {
    const uint32_t parent = links_[n].parent;
    if (parent == kNoParent) continue;
    RPM_DCHECK(links_[parent].rank < links_[n].rank);
    spans_[parent].len += spans_[n].len;
  }

  // Pre-order offsets: parents before children. Each parent's subtree is
  // filled from its end, so visiting children in ascending rank puts them
  // in descending rank after the parent's own list — the order Lemma 3's
  // push-up appends them in.
  std::vector<uint32_t> fill(num_nodes);
  uint32_t root_fill = static_cast<uint32_t>(total);
  for (size_t n = 0; n < num_nodes; ++n) {
    const uint32_t parent = links_[n].parent;
    uint32_t& end = parent == kNoParent ? root_fill : fill[parent];
    end -= spans_[n].len;
    spans_[n].begin = end;
    fill[n] = end + spans_[n].len;
  }
  // Own timestamps go first in each node's range, in insertion order.
  for (size_t n = 0; n < num_nodes; ++n) fill[n] = spans_[n].begin;
  slab_.resize(total);
  for_each_own([&](size_t i, std::span<const Timestamp> ts) {
    uint32_t& at = fill[index_of[i]];
    std::copy(ts.begin(), ts.end(), slab_.begin() + at);
    at += static_cast<uint32_t>(ts.size());
  });
}

TsPrefixTree TsPrefixTree::Builder::Seal() && {
  TsPrefixTree tree(std::move(items_by_rank_));
  // Builder node b (b >= 1) is creation index b - 1; the root is not laid
  // out.
  tree.Layout(
      nodes_.size() - 1,
      [this](size_t i) {
        const Node& n = nodes_[i + 1];
        return Link{n.parent == 0 ? kNoParent : n.parent - 1, n.rank};
      },
      [this](auto&& emit) {
        const Timestamp* ts = own_ts_.data();
        const std::span<const Timestamp>* borrowed = borrowed_.data();
        for (const OwnRun& run : runs_) {
          if (run.len == 0) {
            emit(run.node - 1, *borrowed++);
          } else {
            emit(run.node - 1, std::span<const Timestamp>(ts, run.len));
            ts += run.len;
          }
        }
      });
  // The builder is spent; free its buffers now rather than when it leaves
  // scope, which for a conditional tree is after the recursion below it.
  nodes_ = std::vector<Node>();
  runs_ = std::vector<OwnRun>();
  own_ts_ = TimestampList();
  borrowed_ = std::vector<std::span<const Timestamp>>();
  return tree;
}

void TsPrefixTree::FillRankLists(std::span<const Transaction> transactions,
                                 std::span<const uint32_t> rank_of) {
  const size_t nranks = num_ranks();
  // A rank's nodes' lists partition TS^item, so their summed length is the
  // list's exact size.
  std::vector<size_t> length(nranks, 0);
  for (uint32_t n = 0; n < links_.size(); ++n) {
    length[links_[n].rank] += spans_[n].len;
  }
  rank_lists_.assign(nranks, TimestampList());
  for (size_t r = 0; r < nranks; ++r) rank_lists_[r].reserve(length[r]);
  for (const Transaction& tr : transactions) {
    for (ItemId item : tr.items) {
      const uint32_t rank = rank_of[item];
      if (rank < nranks) rank_lists_[rank].push_back(tr.ts);
    }
  }
  for (size_t r = 0; r < nranks; ++r) {
    RPM_CHECK(rank_lists_[r].size() == length[r])
        << "rank " << r << " list does not match its nodes";
  }
}

size_t TsPrefixTree::ApproxBytes() const {
  size_t timestamps = slab_.size();
  for (const TimestampList& list : rank_lists_) timestamps += list.size();
  return links_.size() * (sizeof(Link) + sizeof(ListSpan)) +
         timestamps * sizeof(Timestamp);
}

TsPrefixTree::RetireStats TsPrefixTree::RetireBefore(Timestamp cutoff) {
  // A rank list is sorted: its expired timestamps are a prefix.
  for (TimestampList& list : rank_lists_) {
    list.erase(list.begin(),
               std::lower_bound(list.begin(), list.end(), cutoff));
  }

  const size_t num_nodes = links_.size();
  // Own length of every node: its span minus its children's spans.
  std::vector<uint32_t> own(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) own[n] = spans_[n].len;
  for (size_t n = 0; n < num_nodes; ++n) {
    if (links_[n].parent != kNoParent) own[links_[n].parent] -= spans_[n].len;
  }
  // Filter each own list, keeping relative order: what survives of a
  // sorted run is still sorted.
  TimestampList kept;
  std::vector<uint32_t> kept_end(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    const Timestamp* first = slab_.data() + spans_[n].begin;
    std::copy_if(first, first + own[n], std::back_inserter(kept),
                 [cutoff](Timestamp t) { return t >= cutoff; });
    kept_end[n] = static_cast<uint32_t>(kept.size());
  }
  // A node survives iff its subtree still holds a timestamp.
  std::vector<uint32_t>& live = own;  // Reused: live subtree sizes.
  for (size_t n = 0; n < num_nodes; ++n) {
    live[n] = kept_end[n] - (n == 0 ? 0 : kept_end[n - 1]);
  }
  for (size_t n = num_nodes; n-- > 0;) {
    if (links_[n].parent != kNoParent) live[links_[n].parent] += live[n];
  }
  std::vector<uint32_t> survivors;
  std::vector<uint32_t> survivor_of(num_nodes, kNoParent);
  for (size_t n = 0; n < num_nodes; ++n) {
    if (live[n] == 0) continue;
    survivor_of[n] = static_cast<uint32_t>(survivors.size());
    survivors.push_back(static_cast<uint32_t>(n));
  }

  RetireStats stats;
  stats.timestamps_retired = slab_.size() - kept.size();
  stats.nodes_retired = num_nodes - survivors.size();
  const std::vector<Link> old_links = std::move(links_);
  // Survivors are already in rank-major chain order, which the layout's
  // stable counting sort preserves.
  Layout(
      survivors.size(),
      [&](size_t i) {
        const Link& link = old_links[survivors[i]];
        return Link{link.parent == kNoParent ? kNoParent
                                             : survivor_of[link.parent],
                    link.rank};
      },
      [&](auto&& emit) {
        for (size_t i = 0; i < survivors.size(); ++i) {
          const uint32_t n = survivors[i];
          const uint32_t begin = n == 0 ? 0 : kept_end[n - 1];
          emit(i, std::span<const Timestamp>(kept.data() + begin,
                                             kept_end[n] - begin));
        }
      });
  return stats;
}

}  // namespace rpm
