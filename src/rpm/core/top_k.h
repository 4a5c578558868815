// Top-k recurring pattern mining by threshold descent.
//
// Picking minRec a priori is hard on unfamiliar data (the paper itself
// reports that almost nothing survives minRec > 3 on its datasets). The
// top-k interface asks instead for "the k most recurring patterns at this
// per / minPS": mining starts from an optimistic minRec derived from the
// per-item Erec distribution and halves it until at least k patterns
// qualify, then returns the k best by (recurrence, support) — the standard
// threshold-descent scheme from top-k frequent-pattern mining, reusing
// RP-growth (and therefore the Erec prune) at every round.

#ifndef RPM_CORE_TOP_K_H_
#define RPM_CORE_TOP_K_H_

#include <cstddef>
#include <functional>

#include "rpm/core/rp_growth.h"

namespace rpm {

struct TopKOptions {
  /// Never mine below this recurrence (1 = exhaustive fallback).
  uint64_t floor_min_rec = 1;
  /// Forwarded to RP-growth.
  size_t max_pattern_length = 0;
  uint32_t max_gap_violations = 0;
};

struct TopKResult {
  /// At most k patterns, ordered by recurrence desc, then support desc,
  /// then canonical itemset order. Fewer than k when the database cannot
  /// produce k patterns even at the floor threshold.
  std::vector<RecurringPattern> patterns;
  /// The minRec of the final mining round.
  uint64_t final_min_rec = 0;
  /// Mining rounds executed (each one full RP-growth run).
  size_t rounds = 0;
};

/// Finds (up to) the k most-recurring patterns. `period` and `min_ps` are
/// as in RpParams and must be valid; k >= 1.
TopKResult MineTopKByRecurrence(const TransactionDatabase& db,
                                Timestamp period, uint64_t min_ps, size_t k,
                                const TopKOptions& options = {});

/// One full mining round at the given params; must behave exactly like
/// MineRecurringPatterns (the query engine injects planner-cached rounds
/// that mine a prebuilt tree instead of re-scanning the database).
using TopKMiningRound = std::function<RpGrowthResult(const RpParams&)>;

/// Optimistic starting threshold: the k-th largest value of
/// `item_recurrence_bounds` (the per-item Erec column of the RP-list),
/// clamped to >= floor_min_rec. Fewer than k items falls back to the floor.
uint64_t TopKInitialMinRec(std::vector<uint64_t> item_recurrence_bounds,
                           size_t k, uint64_t floor_min_rec);

/// Threshold-descent core shared by the database entry point above and the
/// query engine: mines at `initial_min_rec`, halves toward
/// `options.floor_min_rec` until k patterns qualify, returns the k best by
/// (recurrence, support, canonical order). `round` is invoked once per
/// descent step with params (period, min_ps, round_min_rec, tolerance).
TopKResult MineTopKWithRounds(Timestamp period, uint64_t min_ps, size_t k,
                              uint64_t initial_min_rec,
                              const TopKOptions& options,
                              const TopKMiningRound& round);

}  // namespace rpm

#endif  // RPM_CORE_TOP_K_H_
