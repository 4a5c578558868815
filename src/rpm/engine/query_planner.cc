#include "rpm/engine/query_planner.h"

#include <utility>

#include "rpm/common/logging.h"

namespace rpm::engine {

namespace {

/// True when a build at `built` can serve a query at `wanted`: identical
/// interval semantics (period, tolerance) and thresholds no stricter than
/// the query's (see the header's soundness argument).
bool Serves(const RpParams& built, const RpParams& wanted) {
  return built.period == wanted.period &&
         built.max_gap_violations == wanted.max_gap_violations &&
         built.min_ps <= wanted.min_ps && built.min_rec <= wanted.min_rec;
}

/// Among serving builds, prefer the tightest (larger thresholds = smaller
/// tree = fewer nodes walked + less dead exploration when mining the stricter
/// query). minPS shrinks the tree far more than minRec, so it leads.
bool Tighter(const RpParams& a, const RpParams& b) {
  return a.min_ps > b.min_ps ||
         (a.min_ps == b.min_ps && a.min_rec > b.min_rec);
}

}  // namespace

QueryPlanner::QueryPlanner(std::shared_ptr<const DatasetSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {
  RPM_CHECK(snapshot_ != nullptr);
}

QueryPlanner::Plan QueryPlanner::PlanFor(const RpParams& params,
                                         QueryBudget* budget) {
  RPM_CHECK(params.Validate().ok()) << params.ToString();
  if (Plan hit = FindServing(params); hit.prepared != nullptr) return hit;
  // Build outside the lock: concurrent planners for disjoint params
  // proceed in parallel. Two threads racing on the same params build
  // twice; both results are correct and the second insert is a no-op hit
  // for later queries — simpler than a per-key latch and harmless at
  // session query rates.
  auto built = std::make_shared<PreparedMining>(
      PrepareMining(snapshot_->db(), params, PruningMode::kErec, budget));
  if (budget != nullptr && budget->hard_stopped()) {
    // Aborted build: incomplete RP-list/tree. Hand it back for accounting
    // but never cache it or count it as a session build.
    return {std::move(built), /*reused=*/false};
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<const PreparedMining>& entry : cache_) {
    if (Serves(entry->params, params)) return {entry, /*reused=*/true};
  }
  ++tree_builds_;
  cache_.push_back(built);
  if (cache_.size() > kMaxCacheEntries) cache_.erase(cache_.begin());
  return {std::move(built), /*reused=*/false};
}

QueryPlanner::Plan QueryPlanner::FindServing(const RpParams& params) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const PreparedMining* best = nullptr;
  std::shared_ptr<const PreparedMining> pick;
  for (const std::shared_ptr<const PreparedMining>& entry : cache_) {
    if (!Serves(entry->params, params)) continue;
    if (best == nullptr || Tighter(entry->params, best->params)) {
      best = entry.get();
      pick = entry;
    }
  }
  const bool found = pick != nullptr;
  return {std::move(pick), /*reused=*/found};
}

uint64_t QueryPlanner::tree_builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tree_builds_;
}

size_t QueryPlanner::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace rpm::engine
