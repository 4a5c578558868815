// The paper's interestingness measures over point sequences:
// inter-arrival times (Definition 4), periodic-interval decomposition
// (Definitions 5-6), interesting intervals (Definition 7, Algorithm 5),
// recurrence (Definition 8) and the Erec pruning bound (Sec. 4.1).
//
// Everything here operates on a sorted, duplicate-free TimestampList TS^X;
// miners obtain those lists from their tree structures, tests and the
// brute-force miner from TransactionDatabase::TimestampsOf().

#ifndef RPM_CORE_MEASURES_H_
#define RPM_CORE_MEASURES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// IAT^X = {ts_{k+1} - ts_k}: one element per consecutive pair
/// (Definition 4, Example 4). Empty when |ts| < 2.
std::vector<Timestamp> InterArrivalTimes(const TimestampList& ts);

/// Decomposes TS^X into all maximal periodic-intervals: maximal runs of
/// consecutive timestamps whose gaps are <= period, each annotated with its
/// periodic-support (Definitions 5-6, Example 5). A single isolated
/// timestamp forms an interval [t, t] with ps = 1.
std::vector<PeriodicInterval> DecomposePeriodicIntervals(
    const TimestampList& ts, Timestamp period);

/// Keeps the interesting intervals: ps >= min_ps (Definition 7).
std::vector<PeriodicInterval> SelectInterestingIntervals(
    const std::vector<PeriodicInterval>& intervals, uint64_t min_ps);

/// Single pass producing IPI^X directly (the paper's Algorithm 5,
/// getRecurrence, returning the intervals rather than only the boolean).
std::vector<PeriodicInterval> FindInterestingIntervals(
    const TimestampList& ts, Timestamp period, uint64_t min_ps);

/// Allocation-free variant: clears *out and fills it with IPI^X. The
/// miner's hot path routes through this so one scratch vector is reused
/// across every gate evaluation.
void FindInterestingIntervalsInto(const TimestampList& ts, Timestamp period,
                                  uint64_t min_ps,
                                  std::vector<PeriodicInterval>* out);

/// Rec(X) = |IPI^X| (Definition 8).
uint64_t ComputeRecurrence(const TimestampList& ts, Timestamp period,
                           uint64_t min_ps);

/// Estimated maximum recurrence Erec(X) = sum_i floor(ps_i / min_ps) over
/// *all* periodic-intervals (Sec. 4.1). Upper-bounds Rec(Y) for every
/// Y >= X (Properties 1-2); computed in one pass without materialising the
/// decomposition.
uint64_t ComputeErec(const TimestampList& ts, Timestamp period,
                     uint64_t min_ps);

// --- Noise-tolerant extension (paper Sec. 6 future work) -------------------

/// Like FindInterestingIntervals, but an interval may absorb up to
/// `max_violations` inter-arrival times exceeding `period` before being
/// split. Timestamps bridged by a violated gap still count toward the
/// interval's periodic-support. With max_violations == 0 this is exactly
/// the paper's model.
std::vector<PeriodicInterval> FindInterestingIntervalsTolerant(
    const TimestampList& ts, Timestamp period, uint64_t min_ps,
    uint32_t max_violations);

/// Allocation-free variant of FindInterestingIntervalsTolerant.
void FindInterestingIntervalsTolerantInto(const TimestampList& ts,
                                          Timestamp period, uint64_t min_ps,
                                          uint32_t max_violations,
                                          std::vector<PeriodicInterval>* out);

/// Anti-monotone recurrence upper bound valid under gap tolerance:
/// floor(|TS^X| / min_ps). (The paper's Erec is *not* a valid bound once
/// intervals may merge across violated gaps, because splitting a merged
/// run loses floor mass; each interesting interval still consumes at least
/// min_ps distinct timestamps, so the support quotient is safe.)
uint64_t ComputeTolerantRecurrenceBound(size_t support, uint64_t min_ps);

// --- Parameter-dispatched entry points used by the miners ------------------

/// FindInterestingIntervals / ...Tolerant according to params.
std::vector<PeriodicInterval> FindInterestingIntervals(
    const TimestampList& ts, const RpParams& params);

/// Allocation-free variant of the params-dispatched
/// FindInterestingIntervals: clears *out, then fills it with IPI^X.
void FindInterestingIntervalsInto(const TimestampList& ts,
                                  const RpParams& params,
                                  std::vector<PeriodicInterval>* out);

/// Erec (exact model) or the tolerant support bound, per params.
uint64_t ComputeRecurrenceUpperBound(const TimestampList& ts,
                                     const RpParams& params);

/// Fused gate + getRecurrence (Sec. 4.1 + Algorithm 5 in one scan).
struct GateOutcome {
  /// The recurrence upper bound under `params`: Erec in the exact model,
  /// the support quotient under gap tolerance.
  uint64_t recurrence_upper_bound = 0;
  /// recurrence_upper_bound >= params.min_rec.
  bool passes = false;
};

/// Computes the recurrence upper bound AND the interesting intervals of a
/// sorted `ts` in a single pass. *intervals is cleared first; on return it
/// holds IPI^X exactly when the gate passes (left empty otherwise), so a
/// surviving ts-list is scanned once instead of once for the gate and
/// again for the intervals. Under gap tolerance the bound is O(1) and the
/// list is scanned only when the gate passes — the previous
/// gate-then-rescan pair collapses the same way.
GateOutcome ComputeGateAndIntervals(const TimestampList& ts,
                                    const RpParams& params,
                                    std::vector<PeriodicInterval>* intervals);

// --- Columnar hot-path overloads -------------------------------------------
//
// Every measure above reduces to one question per consecutive timestamp
// pair: is u64(ts[g+1]) - u64(ts[g]) <= period? (core/time_gap.h explains
// why that unsigned subtraction is exact for ordered int64 pairs.) For
// long ts-lists the miners split the scan into two passes: a pass with no
// run bookkeeping that writes one break bit per gap into 64-gap mask
// words, then a walk over the set bits (countr_zero) that rebuilds the
// exact run segmentation. Both passes evaluate the same comparison as the
// scalar loops, so the outcome is bit-identical and callers never need to
// know which path ran. Lists below the crossover length stay on the fused
// scalar loop. `scratch` is the reusable mask buffer (one per worker);
// `counters`, when non-null, accumulates scan volume for the stats
// plumbing. Passing scratch == nullptr degrades to the scalar path.

/// Mask words needed for a list of `n` timestamps (n - 1 gaps, 64 per
/// word).
inline constexpr size_t TsBlockWords(size_t n) {
  return n < 2 ? 0 : (n - 1 + 63) / 64;
}

/// Fills masks[0 .. TsBlockWords(n)) for the sorted list ts[0..n): bit
/// (g % 64) of masks[g / 64] is set iff u64(ts[g+1]) - u64(ts[g]) >
/// period. Bits past the last gap are zero. Requires ts sorted ascending
/// (duplicates allowed: a zero delta is never a break since period >= 1);
/// a word whose span ts[64w+64] - ts[64w] is within the period is known
/// to be zero without a per-gap compare.
void ComputeBreakMasks(const Timestamp* ts, size_t n, uint64_t period,
                       uint64_t* masks);

/// Reusable per-miner buffer for the break-mask column. Grow-only, like
/// the other miner scratch slabs; one per worker, never shared across
/// concurrent scans.
struct TsBlockScratch {
  std::vector<uint64_t> break_masks;

  /// Bytes retained (feeds scratch_bytes accounting).
  size_t ByteFootprint() const {
    return break_masks.capacity() * sizeof(uint64_t);
  }
};

/// Gate-scan volume, aggregated into RpGrowthStats by the miners. Both
/// counters are schedule-invariant: they depend only on which ts-lists
/// get scanned, which is identical across sequential and parallel runs.
struct GateCounters {
  size_t lists_scanned = 0;  ///< Gate / interval scans performed.
  size_t gaps_scanned = 0;   ///< Total timestamp gaps evaluated.
};

/// Scratch-backed fused gate + Algorithm-5 scan.
GateOutcome ComputeGateAndIntervals(const TimestampList& ts,
                                    const RpParams& params,
                                    std::vector<PeriodicInterval>* intervals,
                                    TsBlockScratch* scratch,
                                    GateCounters* counters);

/// Scratch-backed recurrence upper bound (Erec in the exact model; the
/// O(1) support quotient under gap tolerance, which never scans).
uint64_t ComputeRecurrenceUpperBound(const TimestampList& ts,
                                     const RpParams& params,
                                     TsBlockScratch* scratch,
                                     GateCounters* counters);

/// The break-mask walk the two overloads above take from
/// kMaskedScanMinGaps (128) gaps up, for a list of any length. Same
/// results; `scratch` must be non-null. Harness check (e) and the tests
/// call these directly so short lists exercise the walk too.
GateOutcome ComputeGateAndIntervalsMasked(
    const TimestampList& ts, const RpParams& params,
    std::vector<PeriodicInterval>* intervals, TsBlockScratch* scratch,
    GateCounters* counters);
uint64_t ComputeRecurrenceUpperBoundMasked(const TimestampList& ts,
                                           const RpParams& params,
                                           TsBlockScratch* scratch,
                                           GateCounters* counters);

}  // namespace rpm

#endif  // RPM_CORE_MEASURES_H_
