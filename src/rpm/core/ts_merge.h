// Run-aware ts-list merge kernel for the RP-growth hot path.
//
// RP-growth spends most of its time assembling sorted ts-lists. Those
// lists are never random — each one is a concatenation of sorted runs
// (transactions arrive in timestamp order, and InsertPath and the sealed
// tree's accumulated ranges only ever concatenate whole sorted lists), so
// sorting the concatenation with std::sort discards structure the RP-tree
// maintained all along. The miner merges in three places: TS^beta of a
// top-level rank (its nodes' ranges), each pattern-base path's list
// before it enters a conditional tree (sorted once, so every list a
// conditional tree receives is one run), and TS^{beta+i} for every item
// of a pattern base (one sorted run per path containing i). This kernel
// exploits the run structure: split every contribution into its maximal
// sorted runs (AppendSortedRuns — O(n), one run for an already-sorted
// list) and merge the runs (MergeSortedRuns — adaptive two-run fast path,
// bottom-up natural mergesort over ping-pong buffers for k runs,
// introsort fallback when runs degenerate to a few elements each). The
// output is the sorted union, element-for-element identical to concat +
// std::sort, in O(n log k) instead of O(n log n) — and O(n) straight
// block copies when the runs barely interleave.
//
// All scratch lives in caller-owned MergeScratch so steady-state merging
// performs no heap allocation; MergeCounters feeds the hot-path
// instrumentation surfaced through RpGrowthStats.

#ifndef RPM_CORE_TS_MERGE_H_
#define RPM_CORE_TS_MERGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "rpm/timeseries/types.h"

namespace rpm {

/// One sorted (non-decreasing) run: the half-open range
/// [data, data + size). Does not own its storage; the referenced
/// timestamps must outlive every kernel call using the run.
struct TsRun {
  const Timestamp* data = nullptr;
  size_t size = 0;
};

/// Hot-path counters, aggregated into RpGrowthStats by the miners.
struct MergeCounters {
  size_t merge_invocations = 0;  ///< MergeSortedRuns(Into) calls.
  size_t runs_merged = 0;        ///< Non-empty input runs consumed.
  size_t timestamps_merged = 0;  ///< Timestamps written to merge outputs.
};

/// Reusable kernel-internal buffers (run cursors + the ping-pong merge
/// slabs of the natural-mergesort rounds). One per miner / worker; a
/// MergeScratch must not be shared by concurrent merges.
struct MergeScratch {
  std::vector<TsRun> active;  ///< Run cursors of the ongoing merge.
  std::vector<size_t> bounds;  ///< Run boundaries between merge rounds.
  TimestampList ping;          ///< Round source slab.
  TimestampList pong;          ///< Round destination slab.

  /// Bytes retained by the scratch buffers (for scratch_bytes_peak).
  size_t ByteFootprint() const {
    return active.capacity() * sizeof(TsRun) +
           bounds.capacity() * sizeof(size_t) +
           (ping.capacity() + pong.capacity()) * sizeof(Timestamp);
  }
};

/// Splits `ts` into its maximal non-decreasing runs and appends one TsRun
/// per run to *runs. A sorted list contributes exactly one run; an empty
/// list contributes none. The runs alias `ts`'s storage.
void AppendSortedRuns(std::span<const Timestamp> ts,
                      std::vector<TsRun>* runs);

/// Merges `num_runs` sorted runs into *out, replacing its contents. The
/// result is exactly what concatenating the runs and std::sort-ing would
/// produce (duplicates kept). Empty runs are permitted and skipped.
/// *out must not alias any input run's storage.
void MergeSortedRuns(const TsRun* runs, size_t num_runs, TimestampList* out,
                     MergeScratch* scratch, MergeCounters* counters);

/// MergeSortedRuns into caller-owned storage: writes the runs' sorted
/// union to [dst, dst + total) and returns dst + total. `dst` must have
/// room for every run's timestamps and must not alias any input run.
Timestamp* MergeSortedRunsInto(const TsRun* runs, size_t num_runs,
                               Timestamp* dst, MergeScratch* scratch,
                               MergeCounters* counters);

}  // namespace rpm

#endif  // RPM_CORE_TS_MERGE_H_
