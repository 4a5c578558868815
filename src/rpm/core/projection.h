// Suffix-item projections: the unit of parallelism of RP-growth.
//
// After the RP-tree is built, the mining work for each candidate suffix
// item ai is fully determined by ai's conditional pattern base — the
// prefix paths of ai's nodes together with the accumulated ts-lists of
// their subtrees (what sequential mining materializes incrementally via
// ts-list push-up, Lemma 3). ProjectSuffixItems runs one bottom-up
// push-up sweep over the tree and records per rank only what push-up
// moves away: the ts-lists. Projections reference the consumed tree's
// nodes read-only for the prefix paths (push-up never writes a node's
// parent or rank), so workers mine them with no synchronization, and
// mining each with the standard push-up recursion yields exactly the
// patterns the sequential miner finds for that suffix item.

#ifndef RPM_CORE_PROJECTION_H_
#define RPM_CORE_PROJECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rpm/core/rp_tree.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// The independent mining subproblem of one suffix item. Its nodes live
/// in the consumed tree, which must outlive the projection's mining.
struct SuffixProjection {
  uint32_t rank = 0;  ///< Rank of the suffix item in the tree's order.
  std::vector<const TsPrefixTree::Node*> nodes;  ///< In chain order.
  /// The nodes' ts-lists before push-up, concatenated in chain order
  /// (size |TS^{item}|); node i's list ends at ts_end[i].
  TimestampList ts;
  std::vector<uint32_t> ts_end;

  std::span<const Timestamp> TsOf(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ts_end[i - 1];
    return {ts.data() + begin, ts_end[i] - begin};
  }
};

/// Decomposes `tree` into one projection per suffix rank that has
/// timestamps, in bottom-up (descending-rank) order — the sequential
/// processing order. Consumes the tree exactly like sequential mining does
/// (ts-lists pushed up, nodes detached); afterwards only the tree's
/// rank->item mapping and its detached nodes' paths remain usable.
std::vector<SuffixProjection> ProjectSuffixItems(TsPrefixTree* tree);

}  // namespace rpm

#endif  // RPM_CORE_PROJECTION_H_
