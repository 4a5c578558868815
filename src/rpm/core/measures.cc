#include "rpm/core/measures.h"

#include <bit>

#include "rpm/common/logging.h"
#include "rpm/core/time_gap.h"

namespace rpm {

std::vector<Timestamp> InterArrivalTimes(const TimestampList& ts) {
  std::vector<Timestamp> iats;
  if (ts.size() < 2) return iats;
  iats.reserve(ts.size() - 1);
  for (size_t i = 1; i < ts.size(); ++i) {
    RPM_DCHECK(ts[i - 1] < ts[i]);
    iats.push_back(SaturatingGap(ts[i - 1], ts[i]));
  }
  return iats;
}

std::vector<PeriodicInterval> DecomposePeriodicIntervals(
    const TimestampList& ts, Timestamp period) {
  RPM_DCHECK(period > 0);
  std::vector<PeriodicInterval> out;
  if (ts.empty()) return out;
  Timestamp run_start = ts[0];
  uint64_t run_count = 1;
  for (size_t i = 1; i < ts.size(); ++i) {
    if (GapWithinPeriod(ts[i - 1], ts[i], period)) {
      ++run_count;
    } else {
      out.push_back({run_start, ts[i - 1], run_count});
      run_start = ts[i];
      run_count = 1;
    }
  }
  out.push_back({run_start, ts.back(), run_count});
  return out;
}

std::vector<PeriodicInterval> SelectInterestingIntervals(
    const std::vector<PeriodicInterval>& intervals, uint64_t min_ps) {
  std::vector<PeriodicInterval> out;
  for (const PeriodicInterval& pi : intervals) {
    if (pi.periodic_support >= min_ps) out.push_back(pi);
  }
  return out;
}

void FindInterestingIntervalsInto(const TimestampList& ts, Timestamp period,
                                  uint64_t min_ps,
                                  std::vector<PeriodicInterval>* out) {
  // Algorithm 5 (getRecurrence), kept as one pass: track the current run's
  // start and size; flush it as interesting when a gap > period (or the
  // end of the list) closes a run of size >= min_ps.
  RPM_DCHECK(period > 0);
  RPM_DCHECK(min_ps >= 1);
  out->clear();
  if (ts.empty()) return;
  Timestamp start_ts = ts[0];
  Timestamp idl = ts[0];
  uint64_t current_ps = 1;
  for (size_t i = 1; i < ts.size(); ++i) {
    const Timestamp cur = ts[i];
    if (GapWithinPeriod(idl, cur, period)) {
      ++current_ps;
    } else {
      if (current_ps >= min_ps) out->push_back({start_ts, idl, current_ps});
      current_ps = 1;
      start_ts = cur;
    }
    idl = cur;
  }
  if (current_ps >= min_ps) out->push_back({start_ts, idl, current_ps});
}

std::vector<PeriodicInterval> FindInterestingIntervals(
    const TimestampList& ts, Timestamp period, uint64_t min_ps) {
  std::vector<PeriodicInterval> out;
  FindInterestingIntervalsInto(ts, period, min_ps, &out);
  return out;
}

uint64_t ComputeRecurrence(const TimestampList& ts, Timestamp period,
                           uint64_t min_ps) {
  return FindInterestingIntervals(ts, period, min_ps).size();
}

uint64_t ComputeErec(const TimestampList& ts, Timestamp period,
                     uint64_t min_ps) {
  RPM_DCHECK(period > 0);
  RPM_DCHECK(min_ps >= 1);
  if (ts.empty()) return 0;
  uint64_t erec = 0;
  uint64_t current_ps = 1;
  for (size_t i = 1; i < ts.size(); ++i) {
    if (GapWithinPeriod(ts[i - 1], ts[i], period)) {
      ++current_ps;
    } else {
      erec += current_ps / min_ps;
      current_ps = 1;
    }
  }
  erec += current_ps / min_ps;
  return erec;
}

void FindInterestingIntervalsTolerantInto(
    const TimestampList& ts, Timestamp period, uint64_t min_ps,
    uint32_t max_violations, std::vector<PeriodicInterval>* out) {
  if (max_violations == 0) {
    FindInterestingIntervalsInto(ts, period, min_ps, out);
    return;
  }
  RPM_DCHECK(period > 0);
  out->clear();
  if (ts.empty()) return;
  Timestamp start_ts = ts[0];
  Timestamp idl = ts[0];
  uint64_t current_ps = 1;
  uint32_t violations = 0;
  for (size_t i = 1; i < ts.size(); ++i) {
    const Timestamp cur = ts[i];
    if (GapWithinPeriod(idl, cur, period)) {
      ++current_ps;
    } else if (violations < max_violations) {
      // Absorb the over-period gap: the run continues, the bridged
      // timestamp still counts.
      ++violations;
      ++current_ps;
    } else {
      if (current_ps >= min_ps) out->push_back({start_ts, idl, current_ps});
      current_ps = 1;
      violations = 0;
      start_ts = cur;
    }
    idl = cur;
  }
  if (current_ps >= min_ps) out->push_back({start_ts, idl, current_ps});
}

std::vector<PeriodicInterval> FindInterestingIntervalsTolerant(
    const TimestampList& ts, Timestamp period, uint64_t min_ps,
    uint32_t max_violations) {
  std::vector<PeriodicInterval> out;
  FindInterestingIntervalsTolerantInto(ts, period, min_ps, max_violations,
                                       &out);
  return out;
}

uint64_t ComputeTolerantRecurrenceBound(size_t support, uint64_t min_ps) {
  RPM_DCHECK(min_ps >= 1);
  return static_cast<uint64_t>(support) / min_ps;
}

std::vector<PeriodicInterval> FindInterestingIntervals(
    const TimestampList& ts, const RpParams& params) {
  return FindInterestingIntervalsTolerant(ts, params.period, params.min_ps,
                                          params.max_gap_violations);
}

void FindInterestingIntervalsInto(const TimestampList& ts,
                                  const RpParams& params,
                                  std::vector<PeriodicInterval>* out) {
  FindInterestingIntervalsTolerantInto(ts, params.period, params.min_ps,
                                       params.max_gap_violations, out);
}

uint64_t ComputeRecurrenceUpperBound(const TimestampList& ts,
                                     const RpParams& params) {
  if (params.max_gap_violations > 0) {
    return ComputeTolerantRecurrenceBound(ts.size(), params.min_ps);
  }
  return ComputeErec(ts, params.period, params.min_ps);
}

GateOutcome ComputeGateAndIntervals(const TimestampList& ts,
                                    const RpParams& params,
                                    std::vector<PeriodicInterval>* intervals) {
  GateOutcome outcome;
  intervals->clear();

  if (params.max_gap_violations > 0) {
    // Tolerant model: the bound is O(1) in the support, so gate first and
    // scan only survivors (exactly once).
    outcome.recurrence_upper_bound =
        ComputeTolerantRecurrenceBound(ts.size(), params.min_ps);
    outcome.passes = outcome.recurrence_upper_bound >= params.min_rec;
    if (outcome.passes) {
      FindInterestingIntervalsTolerantInto(ts, params.period, params.min_ps,
                                           params.max_gap_violations,
                                           intervals);
    }
    return outcome;
  }

  // Exact model: Erec and Algorithm 5 walk the same maximal runs, so one
  // scan produces both. Erec >= |IPI| always (each interesting interval
  // contributes at least floor(ps/min_ps) >= 1), so a gated-out list
  // collected at most min_rec - 1 intervals — discarding them is cheap.
  RPM_DCHECK(params.period > 0);
  RPM_DCHECK(params.min_ps >= 1);
  if (ts.empty()) return outcome;
  uint64_t erec = 0;
  Timestamp start_ts = ts[0];
  uint64_t current_ps = 1;
  for (size_t i = 1; i < ts.size(); ++i) {
    if (GapWithinPeriod(ts[i - 1], ts[i], params.period)) {
      ++current_ps;
    } else {
      erec += current_ps / params.min_ps;
      if (current_ps >= params.min_ps) {
        intervals->push_back({start_ts, ts[i - 1], current_ps});
      }
      current_ps = 1;
      start_ts = ts[i];
    }
  }
  erec += current_ps / params.min_ps;
  if (current_ps >= params.min_ps) {
    intervals->push_back({start_ts, ts.back(), current_ps});
  }
  outcome.recurrence_upper_bound = erec;
  outcome.passes = erec >= params.min_rec;
  if (!outcome.passes) intervals->clear();
  return outcome;
}

// --- Columnar hot-path overloads -------------------------------------------

namespace {

/// Break bits of the `count` (1..64) gaps that start at block[0]. A gap is
/// never larger than the span of a run of gaps containing it, so a block
/// whose span is within the period has no break: on the break-sparse
/// lists mining produces, that one compare settles most words. Otherwise
/// each compare's 0/1 is shifted into place without a branch, so
/// break-dense blocks cost no mispredictions. Called with count == 64
/// for full words, letting the compiler unroll the loop.
inline uint64_t BreakWord(const Timestamp* block, size_t count,
                          uint64_t period) {
  if (TimestampGap(block[0], block[count]) <= period) return 0;
  uint64_t word = 0;
  for (size_t b = 0; b < count; ++b) {
    word |= uint64_t{TimestampGap(block[b], block[b + 1]) > period} << b;
  }
  return word;
}

/// Crossover below which the fused scalar loop runs instead: the mask
/// pass and the bit-walk each touch the list, so their fixed cost (mask
/// resize, a second pass) only pays on long lists. On the break-dense
/// input of BM_MaskedGateAndIntervals (a break every fifth gap, so no
/// word is settled by its span) the masked scan roughly matches
/// BM_FusedGateAndIntervals from 512 to 4 Ki gaps and is ~1.8x faster
/// from 32 Ki; break-sparse lists skip most words. Correctness is
/// identical either side.
constexpr size_t kMaskedScanMinGaps = 128;

/// Invokes fn(g) for every break gap g (set bit) in ascending order.
template <typename Fn>
void ForEachBreak(const uint64_t* masks, size_t words, Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = masks[w];
    while (m != 0) {
      fn((w << 6) + static_cast<size_t>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
}

/// Computes the break-mask column for `ts` into *scratch and accounts the
/// scan. Returns the mask pointer.
const uint64_t* ScanBreakMasks(const TimestampList& ts, Timestamp period,
                               TsBlockScratch* scratch,
                               GateCounters* counters) {
  scratch->break_masks.resize(TsBlockWords(ts.size()));
  ComputeBreakMasks(ts.data(), ts.size(), static_cast<uint64_t>(period),
                    scratch->break_masks.data());
  if (counters != nullptr) {
    ++counters->lists_scanned;
    counters->gaps_scanned += ts.size() - 1;
  }
  return scratch->break_masks.data();
}

/// Mask-driven FindInterestingIntervalsTolerantInto (max_violations >= 1).
/// Runs absorb up to max_violations break gaps before splitting; every
/// timestamp between run start and close is contiguous in index space, so
/// the periodic support of a run [s .. e] is e - s + 1 — identical to the
/// scalar counter.
void TolerantIntervalsFromMasks(const TimestampList& ts,
                                const uint64_t* masks, uint64_t min_ps,
                                uint32_t max_violations,
                                std::vector<PeriodicInterval>* out) {
  const size_t n = ts.size();
  size_t run_start = 0;
  uint32_t violations = 0;
  ForEachBreak(masks, TsBlockWords(n), [&](size_t g) {
    if (violations < max_violations) {
      ++violations;
      return;
    }
    const uint64_t ps = g - run_start + 1;
    if (ps >= min_ps) out->push_back({ts[run_start], ts[g], ps});
    run_start = g + 1;
    violations = 0;
  });
  const uint64_t ps = n - run_start;
  if (ps >= min_ps) out->push_back({ts[run_start], ts[n - 1], ps});
}

}  // namespace

void ComputeBreakMasks(const Timestamp* ts, size_t n, uint64_t period,
                       uint64_t* masks) {
  const size_t gaps = n < 2 ? 0 : n - 1;
  const size_t full_words = gaps / 64;
  for (size_t w = 0; w < full_words; ++w) {
    masks[w] = BreakWord(ts + 64 * w, 64, period);
  }
  if (gaps % 64 != 0) {
    masks[full_words] = BreakWord(ts + 64 * full_words, gaps % 64, period);
  }
}

GateOutcome ComputeGateAndIntervals(const TimestampList& ts,
                                    const RpParams& params,
                                    std::vector<PeriodicInterval>* intervals,
                                    TsBlockScratch* scratch,
                                    GateCounters* counters) {
  const size_t n = ts.size();
  const size_t gaps = n < 2 ? 0 : n - 1;
  if (scratch != nullptr && gaps >= kMaskedScanMinGaps) {
    return ComputeGateAndIntervalsMasked(ts, params, intervals, scratch,
                                         counters);
  }
  // Short list (or no scratch): the scalar fused scan. Still account the
  // volume so the counters describe every gate evaluation.
  if (counters != nullptr && n != 0 &&
      (params.max_gap_violations == 0 ||
       ComputeTolerantRecurrenceBound(n, params.min_ps) >= params.min_rec)) {
    ++counters->lists_scanned;
    counters->gaps_scanned += gaps;
  }
  return ComputeGateAndIntervals(ts, params, intervals);
}

GateOutcome ComputeGateAndIntervalsMasked(
    const TimestampList& ts, const RpParams& params,
    std::vector<PeriodicInterval>* intervals, TsBlockScratch* scratch,
    GateCounters* counters) {
  const size_t n = ts.size();
  GateOutcome outcome;
  intervals->clear();

  if (params.max_gap_violations > 0) {
    // Tolerant model: gate O(1) on support, scan survivors via masks.
    outcome.recurrence_upper_bound =
        ComputeTolerantRecurrenceBound(n, params.min_ps);
    outcome.passes = outcome.recurrence_upper_bound >= params.min_rec;
    if (outcome.passes) {
      const uint64_t* masks =
          ScanBreakMasks(ts, params.period, scratch, counters);
      TolerantIntervalsFromMasks(ts, masks, params.min_ps,
                                 params.max_gap_violations, intervals);
    }
    return outcome;
  }

  // Exact model: every maximal run is delimited by break gaps, so the
  // fused Erec + Algorithm-5 bookkeeping collapses to a walk over set
  // bits. A run closing at break gap g spans ts[run_start .. g]; its
  // periodic support is the index span, exactly the scalar counter.
  RPM_DCHECK(params.period > 0);
  RPM_DCHECK(params.min_ps >= 1);
  if (n == 0) return outcome;
  const uint64_t* masks = ScanBreakMasks(ts, params.period, scratch, counters);
  uint64_t erec = 0;
  size_t run_start = 0;
  ForEachBreak(masks, TsBlockWords(n), [&](size_t g) {
    const uint64_t ps = g - run_start + 1;
    erec += ps / params.min_ps;
    if (ps >= params.min_ps) intervals->push_back({ts[run_start], ts[g], ps});
    run_start = g + 1;
  });
  const uint64_t ps = n - run_start;
  erec += ps / params.min_ps;
  if (ps >= params.min_ps) {
    intervals->push_back({ts[run_start], ts[n - 1], ps});
  }
  outcome.recurrence_upper_bound = erec;
  outcome.passes = erec >= params.min_rec;
  if (!outcome.passes) intervals->clear();
  return outcome;
}

uint64_t ComputeRecurrenceUpperBound(const TimestampList& ts,
                                     const RpParams& params,
                                     TsBlockScratch* scratch,
                                     GateCounters* counters) {
  if (params.max_gap_violations > 0) {
    // O(1): no scan happens, so nothing to count.
    return ComputeTolerantRecurrenceBound(ts.size(), params.min_ps);
  }
  const size_t n = ts.size();
  const size_t gaps = n < 2 ? 0 : n - 1;
  if (scratch != nullptr && gaps >= kMaskedScanMinGaps) {
    return ComputeRecurrenceUpperBoundMasked(ts, params, scratch, counters);
  }
  if (counters != nullptr && n != 0) {
    ++counters->lists_scanned;
    counters->gaps_scanned += gaps;
  }
  return ComputeErec(ts, params.period, params.min_ps);
}

uint64_t ComputeRecurrenceUpperBoundMasked(const TimestampList& ts,
                                           const RpParams& params,
                                           TsBlockScratch* scratch,
                                           GateCounters* counters) {
  const size_t n = ts.size();
  if (params.max_gap_violations > 0) {
    return ComputeTolerantRecurrenceBound(n, params.min_ps);
  }
  RPM_DCHECK(params.period > 0);
  RPM_DCHECK(params.min_ps >= 1);
  if (n == 0) return 0;
  const uint64_t* masks = ScanBreakMasks(ts, params.period, scratch, counters);
  uint64_t erec = 0;
  size_t run_start = 0;
  ForEachBreak(masks, TsBlockWords(n), [&](size_t g) {
    erec += (g - run_start + 1) / params.min_ps;
    run_start = g + 1;
  });
  erec += (n - run_start) / params.min_ps;
  return erec;
}

}  // namespace rpm
