// Run-aware ts-list merge kernel for the RP-growth hot path.
//
// RP-growth spends most of its time assembling sorted ts-lists. Those
// lists are never random — each one is a concatenation of sorted runs
// (transactions arrive in timestamp order, and InsertPath and the sealed
// tree's accumulated ranges only ever concatenate whole sorted lists), so
// sorting the concatenation with std::sort discards structure the RP-tree
// maintained all along. The miner merges in two places: each
// pattern-base path's list before it enters a conditional tree (sorted
// once, so every list a conditional tree receives is one run), and
// TS^{beta+i} for an item of a pattern base (one sorted run per path
// containing i). Only lists of at least minPS * minRec timestamps are
// merged: the miner first sums the lengths of a TS^{beta+i}'s runs and
// drops a shorter list, which no order could make pass the gate,
// unmerged (support_pruned). A top-level rank's TS^item comes sorted
// with the tree and is never merged. This kernel exploits the run
// structure: split every contribution into its maximal sorted runs
// (AppendSortedRuns — O(n), one run for an already-sorted list) and merge
// the runs (MergeSortedRuns), picking one path per call:
//   - one run: a copy; two runs: an adaptive merge that gallops across
//     blocks;
//   - k >= 3 runs that densely fill their span [lo, hi] (at most 64
//     slots of the span, one bitmap word, per timestamp): a bitmap
//     union — OR every run into ceil((hi - lo + 1) / 64) words, then
//     write the set bits out in order. One pass over the runs and one
//     over the words, whatever k.
//     Mined lists are sets (a base's paths partition TS^beta, and a
//     database's timestamps strictly increase), so a dense mine takes
//     this path; a timestamp seen twice sends the call on to the paths
//     below, which keep duplicates;
//   - k >= 3 runs averaging under 8 timestamps: concat + introsort;
//   - otherwise a bottom-up natural mergesort over ping-pong buffers,
//     ceil(log2 k) passes.
// The output is the sorted union, element-for-element identical to
// concat + std::sort, in O(n log k) at worst instead of O(n log n) — and
// O(n) when the runs barely interleave or fill their span.
//
// All scratch lives in caller-owned MergeScratch so steady-state merging
// performs no heap allocation; MergeCounters feeds the hot-path
// instrumentation surfaced through RpGrowthStats.

#ifndef RPM_CORE_TS_MERGE_H_
#define RPM_CORE_TS_MERGE_H_

#include <cstddef>
#include <cstdint>
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

/// Reusable kernel-internal buffers (run cursors, the ping-pong merge
/// slabs of the natural-mergesort rounds and the bitmap union's words).
/// One per miner / worker; a MergeScratch must not be shared by concurrent
/// merges.
struct MergeScratch {
  std::vector<TsRun> active;  ///< Run cursors of the ongoing merge.
  std::vector<size_t> bounds;  ///< Run boundaries between merge rounds.
  TimestampList ping;          ///< Round source slab.
  TimestampList pong;          ///< Round destination slab.
  std::vector<uint64_t> bits;  ///< Bitmap union words, one per 64 slots.

  /// Bytes retained by the scratch buffers (for scratch_bytes_peak).
  size_t ByteFootprint() const {
    return active.capacity() * sizeof(TsRun) +
           bounds.capacity() * sizeof(size_t) +
           (ping.capacity() + pong.capacity()) * sizeof(Timestamp) +
           bits.capacity() * sizeof(uint64_t);
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

/// MergeSortedRunsInto with the bitmap union's density limit as a
/// parameter: k >= 3 runs take the bitmap when their span holds at most
/// `max_slots_per_ts` slots per timestamp, and never for 0 (the paths a
/// sparse or duplicated input takes). The miners never call it; it lets
/// bench_micro's BM_MergeDenseRange time both sides of the kernel's
/// built-in limit.
Timestamp* MergeWithBitmapLimitInto(const TsRun* runs, size_t num_runs,
                                    Timestamp* dst, MergeScratch* scratch,
                                    MergeCounters* counters,
                                    uint64_t max_slots_per_ts);

}  // namespace rpm

#endif  // RPM_CORE_TS_MERGE_H_
