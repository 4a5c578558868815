#include "rpm/core/ts_merge.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "rpm/common/logging.h"

namespace rpm {
namespace {

/// Consecutive single-element wins one side must score before MergeTwo
/// switches to galloping block copies (timsort's MIN_GALLOP). Below the
/// threshold a plain compare-and-copy loop is faster; above it the data is
/// blocky and exponential search skips whole blocks.
constexpr int kMinGallop = 7;

/// k-way merging only beats introsort when runs are long enough that the
/// per-block heap rounds amortize; below this average run length the
/// kernel concatenates and sorts instead (exactly the pre-kernel path).
constexpr size_t kFragmentedAvgRunLen = 8;

/// The bitmap union pays one pass over the span's 64-slot words on top of
/// one pass over the runs, so it wins once the runs fill their span
/// densely enough: at most this many slots of the span per timestamp.
/// bench_micro's BM_MergeDenseRange (EXPERIMENTS.md, "Bitmap union"):
/// against the comparison paths, 3 runs stay within about 20 % from 1 to
/// 64 slots per timestamp and lose 1.5x at 128, while 8 and 32 runs still
/// win 2.8x and 7x at 128. 64 slots, one bitmap word per timestamp, is
/// the sparsest span at which no run count loses clearly.
constexpr uint64_t kBitmapMaxSlotsPerTimestamp = 64;

/// First index i in [0, n) with data[i] > key, found by exponential probing
/// from the front then binary search inside the located bracket. O(log d)
/// for answers d positions in — the galloping primitive of the kernel.
size_t GallopUpperBound(const Timestamp* data, size_t n, Timestamp key) {
  if (n == 0 || data[0] > key) return 0;
  size_t lo = 0;  // data[lo] <= key.
  size_t hi = 1;
  while (hi < n && data[hi] <= key) {
    lo = hi;
    hi = 2 * hi + 1;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(std::upper_bound(data + lo, data + hi, key) -
                             data);
}

/// First index i in [0, n) with data[i] >= key, same probing scheme.
size_t GallopLowerBound(const Timestamp* data, size_t n, Timestamp key) {
  if (n == 0 || data[0] >= key) return 0;
  size_t lo = 0;  // data[lo] < key.
  size_t hi = 1;
  while (hi < n && data[hi] < key) {
    lo = hi;
    hi = 2 * hi + 1;
  }
  if (hi > n) hi = n;
  return static_cast<size_t>(std::lower_bound(data + lo, data + hi, key) -
                             data);
}

inline Timestamp* CopyBlock(const Timestamp* src, size_t count,
                            Timestamp* dst) {
  return std::copy(src, src + count, dst);
}

/// Two-run adaptive merge into `dst` (which has room for both runs):
/// straight compare-and-copy until one side wins kMinGallop times in a
/// row, then gallop — block-copying to the other side's head. Skewed or
/// blocky runs (one long pushed-up list plus a short fresh one) degrade
/// to O(short * log long) instead of O(long + short); finely interleaved
/// runs never pay more than one compare per element.
Timestamp* MergeTwo(TsRun a, TsRun b, Timestamp* dst) {
  int streak_a = 0;
  int streak_b = 0;
  while (a.size != 0 && b.size != 0) {
    if (a.data[0] <= b.data[0]) {
      if (++streak_a >= kMinGallop) {
        const size_t count = GallopUpperBound(a.data, a.size, b.data[0]);
        dst = CopyBlock(a.data, count, dst);
        a.data += count;
        a.size -= count;
        streak_a = 0;
      } else {
        *dst++ = a.data[0];
        ++a.data;
        --a.size;
      }
      streak_b = 0;
    } else {
      if (++streak_b >= kMinGallop) {
        const size_t count = GallopLowerBound(b.data, b.size, a.data[0]);
        dst = CopyBlock(b.data, count, dst);
        b.data += count;
        b.size -= count;
        streak_b = 0;
      } else {
        *dst++ = b.data[0];
        ++b.data;
        --b.size;
      }
      streak_a = 0;
    }
  }
  if (a.size != 0) dst = CopyBlock(a.data, a.size, dst);
  if (b.size != 0) dst = CopyBlock(b.data, b.size, dst);
  return dst;
}

/// Writes the sorted union of k >= 3 runs to [dst, dst + total) through a
/// bitmap over their span [lo, hi] when the span holds at most
/// `max_slots_per_ts` slots per timestamp: one OR pass over the runs and
/// one pass over the words, whatever k. The words live in scratch->bits.
/// Returns false, having written nothing to dst, when the span is too
/// sparse or a timestamp repeats (a set bit seen twice: the bitmap cannot
/// hold the duplicate the kernel's contract keeps).
bool BitmapUnion(const std::vector<TsRun>& active, size_t total,
                 uint64_t max_slots_per_ts, Timestamp* dst,
                 MergeScratch* scratch) {
  Timestamp lo = active[0].data[0];
  Timestamp hi = active[0].data[active[0].size - 1];
  for (const TsRun& run : active) {
    lo = std::min(lo, run.data[0]);
    hi = std::max(hi, run.data[run.size - 1]);
  }
  // Unsigned, so a span from INT64_MIN to INT64_MAX cannot overflow.
  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t words = (static_cast<uint64_t>(hi) - base) / 64 + 1;
  if (words > total * max_slots_per_ts / 64) return false;

  std::vector<uint64_t>& bits = scratch->bits;
  if (bits.size() < words) bits.resize(words);
  std::fill_n(bits.begin(), words, uint64_t{0});
  uint64_t* const map = bits.data();
  for (const TsRun& run : active) {
    // The current word stays in a register while consecutive timestamps
    // share it: a load-OR-store per element would wait on the store
    // before it every time.
    uint64_t at = (static_cast<uint64_t>(run.data[0]) - base) / 64;
    uint64_t word = map[at];
    for (size_t i = 0; i < run.size; ++i) {
      const uint64_t offset = static_cast<uint64_t>(run.data[i]) - base;
      if (offset / 64 != at) {
        map[at] = word;
        at = offset / 64;
        word = map[at];
      }
      const uint64_t bit = uint64_t{1} << (offset % 64);
      if ((word & bit) != 0) return false;  // Duplicate timestamp.
      word |= bit;
    }
    map[at] = word;
  }

  Timestamp* out = dst;
  for (uint64_t w = 0; w < words; ++w) {
    const uint64_t first = base + w * 64;
    for (uint64_t word = map[w]; word != 0; word &= word - 1) {
      *out++ = static_cast<Timestamp>(first + std::countr_zero(word));
    }
  }
  RPM_DCHECK(out == dst + total);
  return true;
}

}  // namespace

void AppendSortedRuns(std::span<const Timestamp> ts,
                      std::vector<TsRun>* runs) {
  const Timestamp* data = ts.data();
  const size_t n = ts.size();
  size_t begin = 0;
  while (begin < n) {
    size_t end = begin + 1;
    while (end < n && data[end] >= data[end - 1]) ++end;
    runs->push_back({data + begin, end - begin});
    begin = end;
  }
}

void MergeSortedRuns(const TsRun* runs, size_t num_runs, TimestampList* out,
                     MergeScratch* scratch, MergeCounters* counters) {
  size_t total = 0;
  for (size_t i = 0; i < num_runs; ++i) total += runs[i].size;
  out->resize(total);
  MergeSortedRunsInto(runs, num_runs, out->data(), scratch, counters);
}

Timestamp* MergeSortedRunsInto(const TsRun* runs, size_t num_runs,
                               Timestamp* dst, MergeScratch* scratch,
                               MergeCounters* counters) {
  return MergeWithBitmapLimitInto(runs, num_runs, dst, scratch, counters,
                                  kBitmapMaxSlotsPerTimestamp);
}

Timestamp* MergeWithBitmapLimitInto(const TsRun* runs, size_t num_runs,
                                    Timestamp* dst, MergeScratch* scratch,
                                    MergeCounters* counters,
                                    uint64_t max_slots_per_ts) {
  ++counters->merge_invocations;

  // Compact away empty runs: every branch below writes exactly `total`
  // elements through a raw cursor.
  std::vector<TsRun>& active = scratch->active;
  active.clear();
  size_t total = 0;
  for (size_t i = 0; i < num_runs; ++i) {
    if (runs[i].size == 0) continue;
    active.push_back(runs[i]);
    total += runs[i].size;
  }
  counters->runs_merged += active.size();
  counters->timestamps_merged += total;
  Timestamp* const end = dst + total;
  if (active.empty()) return end;

  if (active.size() == 1) {
    CopyBlock(active[0].data, active[0].size, dst);
    return end;
  }
  if (active.size() == 2) {
    MergeTwo(active[0], active[1], dst);
    return end;
  }
  if (BitmapUnion(active, total, max_slots_per_ts, dst, scratch)) return end;

  // Fragmented inputs — many tiny runs (a sparse tree's nodes hold
  // few-timestamp own lists) — interleave too finely for any
  // k-way scheme to beat introsort: concatenate and sort, exactly the
  // pre-kernel path and byte-identical output.
  if (total < active.size() * kFragmentedAvgRunLen) {
    Timestamp* cursor = dst;
    for (const TsRun& run : active) {
      cursor = CopyBlock(run.data, run.size, cursor);
    }
    std::sort(dst, end);
    return end;
  }

  // k >= 3 runs: bottom-up natural mergesort. Each round halves the run
  // count with the adaptive two-run merge — ceil(log2 k) linear streaming
  // passes instead of introsort's log2(n), and each pass gallops across
  // whatever block structure the round before it built up. A k-way heap
  // loses here: with finely interleaved runs the heap winner advances
  // ~one element per pop/push round, costing log k indirect compares per
  // element against this loop's one.
  //
  // The first round merges straight out of the caller's runs into `ping`;
  // later rounds ping-pong between the slabs; the final two-run round
  // writes into `dst`. `bounds` holds run boundaries and is compacted in
  // place (new bound j = old bound 2j, written only after it is read).
  std::vector<size_t>& bounds = scratch->bounds;
  bounds.clear();
  bounds.push_back(0);
  TimestampList& ping = scratch->ping;
  if (ping.size() < total) ping.resize(total);
  Timestamp* src = ping.data();
  Timestamp* tmp = nullptr;
  {
    Timestamp* cursor = src;
    size_t i = 0;
    for (; i + 1 < active.size(); i += 2) {
      cursor = MergeTwo(active[i], active[i + 1], cursor);
      bounds.push_back(static_cast<size_t>(cursor - src));
    }
    if (i < active.size()) {
      cursor = CopyBlock(active[i].data, active[i].size, cursor);
      bounds.push_back(static_cast<size_t>(cursor - src));
    }
  }
  size_t k = bounds.size() - 1;
  if (k > 2) {
    TimestampList& pong = scratch->pong;
    if (pong.size() < total) pong.resize(total);
    tmp = pong.data();
  }
  while (k > 2) {
    Timestamp* cursor = tmp;
    size_t next = 0;
    size_t i = 0;
    for (; i + 1 < k; i += 2) {
      const TsRun a{src + bounds[i], bounds[i + 1] - bounds[i]};
      const TsRun b{src + bounds[i + 1], bounds[i + 2] - bounds[i + 1]};
      cursor = MergeTwo(a, b, cursor);
      bounds[++next] = static_cast<size_t>(cursor - tmp);
    }
    if (i < k) {  // Odd run out: carried into the next round verbatim.
      cursor = CopyBlock(src + bounds[i], bounds[i + 1] - bounds[i], cursor);
      bounds[++next] = static_cast<size_t>(cursor - tmp);
    }
    k = next;
    std::swap(src, tmp);
  }
  RPM_DCHECK(k == 2);
  MergeTwo({src, bounds[1]}, {src + bounds[1], bounds[2] - bounds[1]}, dst);
  return end;
}

}  // namespace rpm
