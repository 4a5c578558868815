// Session-scoped query planning: caches the query-independent half of
// RP-growth (RP-list + RP-tree) across the queries of one session and
// reuses looser-threshold builds for stricter re-queries.
//
// Soundness of loose->strict reuse (DESIGN.md §6): for fixed period and
// tolerance, both recurrence upper bounds the RP-list prunes with — Erec
// in the exact model, floor(support/minPS) under gap tolerance — are
// non-increasing in minPS, and an item is a candidate iff its bound
// reaches minRec. So tightening (minPS, minRec) only shrinks the
// candidate set: a tree built at looser thresholds contains a superset of
// the stricter tree's paths. Mining that superset under the stricter
// params emits exactly the stricter pattern set, because every per-pattern
// decision (gate, getRecurrence) is evaluated exactly from the pattern's
// full TS^beta under the *query's* params, and any pattern touching an
// item outside the stricter candidate set fails its gate by the
// anti-monotone bound. Only exploration counters (patterns_examined,
// conditional_trees, ...) reflect the looser build.

#ifndef RPM_ENGINE_QUERY_PLANNER_H_
#define RPM_ENGINE_QUERY_PLANNER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rpm/core/cancellation.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/rp_growth.h"
#include "rpm/engine/dataset_snapshot.h"

namespace rpm::engine {

/// Plans mining runs against one snapshot, caching prepared builds.
/// Thread-safe: executors on different threads may plan against one
/// planner concurrently (the snapshot is immutable; the cache is
/// mutex-guarded; returned builds are shared_ptr-pinned and only read).
class QueryPlanner {
 public:
  /// `snapshot` must be non-null; the planner keeps a reference for its
  /// lifetime.
  explicit QueryPlanner(std::shared_ptr<const DatasetSnapshot> snapshot);

  /// One plannable build, pinned against cache eviction.
  struct Plan {
    std::shared_ptr<const PreparedMining> prepared;
    /// True when served from the session cache (exact hit or a compatible
    /// looser build) rather than built for this call.
    bool reused = false;
  };

  /// Returns a build able to serve `params` (must validate): a cached
  /// build with the same period/tolerance and thresholds no stricter than
  /// `params` (the *tightest* such build, minimizing the tree mined and
  /// dead exploration), else a fresh build at exactly `params` (cached for
  /// later queries). Mining only reads plan.prepared->tree, so any number
  /// of queries mine one cached build at once.
  ///
  /// A non-null `budget` governs any fresh build (checkpoints in the
  /// RP-list scan and tree construction). When the budget hard-stops
  /// mid-build, the partial build is returned UNCACHED and uncounted — a
  /// partial tree must never serve a later query — and the caller must
  /// check budget->hard_stopped() before mining it.
  Plan PlanFor(const RpParams& params, QueryBudget* budget = nullptr);

  const DatasetSnapshot& snapshot() const { return *snapshot_; }
  std::shared_ptr<const DatasetSnapshot> snapshot_ptr() const {
    return snapshot_;
  }

  /// Trees built by this planner so far (a build-once/query-many session
  /// reports 1).
  uint64_t tree_builds() const;
  size_t cache_size() const;

  /// Cached builds kept per planner; the oldest is evicted beyond this.
  /// In-flight plans stay valid (shared_ptr).
  static constexpr size_t kMaxCacheEntries = 8;

 private:
  /// Tightest cached build serving `params`; {nullptr, false} on a miss.
  Plan FindServing(const RpParams& params) const;

  std::shared_ptr<const DatasetSnapshot> snapshot_;
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const PreparedMining>> cache_;
  uint64_t tree_builds_ = 0;
};

}  // namespace rpm::engine

#endif  // RPM_ENGINE_QUERY_PLANNER_H_
