// The merge kernel's only contract: MergeSortedRuns(runs) is
// element-for-element identical to concatenating the runs and std::sort-ing
// (duplicates kept), for every run count / length / interleaving — the
// miners rely on that equivalence for bit-identical pattern output. The
// property tests drive the kernel through all of its internal regimes
// (copy, adaptive two-run, bitmap union of dense sets, fragmented
// introsort fallback, natural mergesort rounds) against the concat+sort
// oracle.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/common/random.h"
#include "rpm/core/ts_merge.h"

namespace rpm {
namespace {

/// Oracle: the exact computation the kernel replaces.
TimestampList ConcatAndSort(const std::vector<TimestampList>& lists) {
  TimestampList all;
  for (const TimestampList& list : lists) {
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// Splits every list into runs and merges them through `scratch`.
TimestampList MergeWith(const std::vector<TimestampList>& lists,
                        MergeScratch* scratch,
                        MergeCounters* counters = nullptr) {
  std::vector<TsRun> runs;
  for (const TimestampList& list : lists) {
    AppendSortedRuns(list, &runs);
  }
  MergeCounters local;
  TimestampList out;
  MergeSortedRuns(runs.data(), runs.size(), &out, scratch,
                  counters != nullptr ? counters : &local);
  return out;
}

/// Splits every list into runs and merges them through a fresh scratch.
TimestampList MergeLists(const std::vector<TimestampList>& lists,
                         MergeCounters* counters = nullptr) {
  MergeScratch scratch;
  return MergeWith(lists, &scratch, counters);
}

/// A set of timestamps drawn from [lo, lo + span) with the given chance
/// per slot, dealt at random into `k` sorted runs — the shape of a pattern
/// base's paths through one item. Every run gets at least one timestamp.
std::vector<TimestampList> DealtSet(Rng* rng, size_t k, Timestamp lo,
                                    uint64_t span, double density) {
  std::vector<TimestampList> lists(k);
  for (uint64_t slot = 0; slot < span; ++slot) {
    if (!rng->NextBernoulli(density)) continue;
    const Timestamp t =
        static_cast<Timestamp>(static_cast<uint64_t>(lo) + slot);
    lists[rng->NextUint64(k)].push_back(t);
  }
  for (size_t i = 0; i < k; ++i) {
    if (!lists[i].empty()) continue;
    // Borrow one timestamp from a list that can spare it.
    for (TimestampList& donor : lists) {
      if (donor.size() < 2) continue;
      const size_t at = rng->NextUint64(donor.size());
      lists[i].push_back(donor[at]);
      donor.erase(donor.begin() + static_cast<ptrdiff_t>(at));
      break;
    }
  }
  return lists;
}

/// True when the last merge through `scratch` could only have taken the
/// bitmap path: no other path touches the bitmap words, and a fresh
/// scratch has none.
bool TookBitmap(const MergeScratch& scratch) {
  return !scratch.bits.empty();
}

TEST(AppendSortedRunsTest, EmptyListContributesNothing) {
  std::vector<TsRun> runs;
  AppendSortedRuns({}, &runs);
  EXPECT_TRUE(runs.empty());
}

TEST(AppendSortedRunsTest, SortedListIsOneRun) {
  TimestampList ts = {1, 2, 2, 5, 9};
  std::vector<TsRun> runs;
  AppendSortedRuns(ts, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].data, ts.data());
  EXPECT_EQ(runs[0].size, ts.size());
}

TEST(AppendSortedRunsTest, SplitsAtEveryDescent) {
  TimestampList ts = {3, 7, 1, 1, 4, 2};  // Runs: [3,7] [1,1,4] [2].
  std::vector<TsRun> runs;
  AppendSortedRuns(ts, &runs);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].size, 2u);
  EXPECT_EQ(runs[1].size, 3u);
  EXPECT_EQ(runs[2].size, 1u);
  EXPECT_EQ(runs[1].data, ts.data() + 2);
}

TEST(AppendSortedRunsTest, StrictlyDecreasingIsAllSingletons) {
  TimestampList ts = {9, 7, 5, 3};
  std::vector<TsRun> runs;
  AppendSortedRuns(ts, &runs);
  ASSERT_EQ(runs.size(), 4u);
  for (const TsRun& run : runs) EXPECT_EQ(run.size, 1u);
}

TEST(MergeSortedRunsTest, NoRunsYieldsEmpty) {
  MergeScratch scratch;
  MergeCounters counters;
  TimestampList out = {42};  // Must be replaced, not appended to.
  MergeSortedRuns(nullptr, 0, &out, &scratch, &counters);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(counters.merge_invocations, 1u);
  EXPECT_EQ(counters.runs_merged, 0u);
  EXPECT_EQ(counters.timestamps_merged, 0u);
}

TEST(MergeSortedRunsTest, AllEmptyRunsAreSkipped) {
  std::vector<TsRun> runs(5);  // All {nullptr, 0}.
  MergeScratch scratch;
  MergeCounters counters;
  TimestampList out;
  MergeSortedRuns(runs.data(), runs.size(), &out, &scratch, &counters);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(counters.runs_merged, 0u);
}

TEST(MergeSortedRunsTest, SingleRunIsCopied) {
  EXPECT_EQ(MergeLists({{1, 4, 4, 9}}), (TimestampList{1, 4, 4, 9}));
}

TEST(MergeSortedRunsTest, TwoInterleavedRuns) {
  EXPECT_EQ(MergeLists({{1, 3, 5}, {2, 4, 6}}),
            (TimestampList{1, 2, 3, 4, 5, 6}));
}

TEST(MergeSortedRunsTest, TwoDisjointRunsGallop) {
  TimestampList a;
  TimestampList b;
  for (Timestamp t = 0; t < 100; ++t) a.push_back(t);
  for (Timestamp t = 100; t < 200; ++t) b.push_back(t);
  EXPECT_EQ(MergeLists({b, a}), ConcatAndSort({a, b}));
}

TEST(MergeSortedRunsTest, DuplicatesAcrossRunsAreKept) {
  EXPECT_EQ(MergeLists({{2, 2, 5}, {2, 5, 5}, {2}}),
            (TimestampList{2, 2, 2, 2, 5, 5, 5}));
}

TEST(MergeSortedRunsTest, CountersTallyRunsAndTimestamps) {
  MergeCounters counters;
  // {3,7,1,4} splits into [3,7] and [1,4]; plus one sorted list and one
  // empty list: 3 non-empty runs, 7 timestamps.
  TimestampList out = MergeLists({{3, 7, 1, 4}, {2, 5, 9}, {}}, &counters);
  EXPECT_EQ(out.size(), 7u);
  EXPECT_EQ(counters.merge_invocations, 1u);
  EXPECT_EQ(counters.runs_merged, 3u);
  EXPECT_EQ(counters.timestamps_merged, 7u);
}

TEST(MergeSortedRunsTest, ScratchIsReusableAcrossCalls) {
  MergeScratch scratch;
  MergeCounters counters;
  std::vector<TimestampList> lists = {{5, 1, 3}, {2, 2, 8}, {7}};
  std::vector<TsRun> runs;
  for (const TimestampList& list : lists) AppendSortedRuns(list, &runs);
  TimestampList out;
  for (int round = 0; round < 3; ++round) {
    MergeSortedRuns(runs.data(), runs.size(), &out, &scratch, &counters);
    EXPECT_EQ(out, ConcatAndSort(lists)) << "round=" << round;
  }
  EXPECT_EQ(counters.merge_invocations, 3u);
  EXPECT_GT(scratch.ByteFootprint(), 0u);
}

TEST(MergeSortedRunsIntoTest, WritesExactlyTheMergedRangeInPlace) {
  // One run per regime: copy, two-run merge, fragmented sort, mergesort.
  const std::vector<std::vector<TimestampList>> cases = {
      {{4, 6, 9}},
      {{1, 3, 5}, {2, 4, 6}},
      {{3, 1}, {2}, {5, 4}},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90},
       {15, 25, 35, 45, 55, 65, 75, 85, 95},
       {12, 22, 32, 42, 52, 62, 72, 82, 92}}};
  for (const std::vector<TimestampList>& lists : cases) {
    std::vector<TsRun> runs;
    for (const TimestampList& list : lists) AppendSortedRuns(list, &runs);
    const TimestampList want = ConcatAndSort(lists);
    constexpr Timestamp kSentinel = -7;
    TimestampList slab(want.size() + 4, kSentinel);
    MergeScratch scratch;
    MergeCounters counters;
    Timestamp* const end = MergeSortedRunsInto(
        runs.data(), runs.size(), slab.data() + 2, &scratch, &counters);
    EXPECT_EQ(end, slab.data() + 2 + want.size());
    EXPECT_EQ(TimestampList(slab.begin() + 2, slab.end() - 2), want);
    EXPECT_EQ(slab[0], kSentinel);
    EXPECT_EQ(slab[1], kSentinel);
    EXPECT_EQ(slab[slab.size() - 2], kSentinel);
    EXPECT_EQ(slab[slab.size() - 1], kSentinel);
    EXPECT_EQ(counters.timestamps_merged, want.size());
  }
}

// --- Property tests against the oracle ------------------------------------

/// One random instance: `num_lists` lists, each a concatenation of sorted
/// runs whose lengths are geometric-ish with the given mean. Small value
/// ranges force duplicates; empty lists appear regularly.
std::vector<TimestampList> RandomLists(Rng* rng, size_t num_lists,
                                       size_t mean_run_len,
                                       Timestamp value_range) {
  std::vector<TimestampList> lists(num_lists);
  for (TimestampList& list : lists) {
    if (rng->NextBernoulli(0.15)) continue;  // Stay empty.
    const size_t num_runs = 1 + rng->NextUint64(4);
    for (size_t r = 0; r < num_runs; ++r) {
      size_t len = 1 + rng->NextUint64(2 * mean_run_len);
      Timestamp t = static_cast<Timestamp>(rng->NextUint64(value_range));
      for (size_t i = 0; i < len; ++i) {
        list.push_back(t);
        t += static_cast<Timestamp>(rng->NextUint64(4));  // 0 keeps dups.
      }
    }
  }
  return lists;
}

TEST(MergeSortedRunsPropertyTest, FragmentedTinyRunsMatchOracle) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t num_lists = 1 + rng.NextUint64(40);
    std::vector<TimestampList> lists =
        RandomLists(&rng, num_lists, /*mean_run_len=*/2, /*value_range=*/50);
    EXPECT_EQ(MergeLists(lists), ConcatAndSort(lists)) << "trial=" << trial;
  }
}

TEST(MergeSortedRunsPropertyTest, LongStructuredRunsMatchOracle) {
  Rng rng(4711);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t num_lists = 1 + rng.NextUint64(16);
    std::vector<TimestampList> lists = RandomLists(
        &rng, num_lists, /*mean_run_len=*/60, /*value_range=*/5000);
    EXPECT_EQ(MergeLists(lists), ConcatAndSort(lists)) << "trial=" << trial;
  }
}

TEST(MergeSortedRunsPropertyTest, SkewedRunLengthsMatchOracle) {
  // One huge run against many tiny ones: the galloping / carry-over paths.
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<TimestampList> lists;
    TimestampList big;
    Timestamp t = 0;
    const size_t big_len = 500 + rng.NextUint64(500);
    for (size_t i = 0; i < big_len; ++i) {
      big.push_back(t += static_cast<Timestamp>(rng.NextUint64(3)));
    }
    lists.push_back(std::move(big));
    const size_t num_tiny = rng.NextUint64(12);
    for (size_t i = 0; i < num_tiny; ++i) {
      TimestampList tiny;
      tiny.push_back(static_cast<Timestamp>(rng.NextUint64(1500)));
      if (rng.NextBernoulli(0.5)) {
        tiny.push_back(tiny.back() + static_cast<Timestamp>(
                                         rng.NextUint64(10)));
      }
      lists.push_back(std::move(tiny));
    }
    EXPECT_EQ(MergeLists(lists), ConcatAndSort(lists)) << "trial=" << trial;
  }
}

TEST(MergeSortedRunsPropertyTest, EveryRunCountUpToSixtyFour) {
  // Pins the round structure: every k hits a different pairing/carry
  // pattern in the natural-mergesort rounds (odd k exercises carry-over).
  Rng rng(7);
  for (size_t k = 1; k <= 64; ++k) {
    std::vector<TimestampList> lists;
    for (size_t i = 0; i < k; ++i) {
      TimestampList list;
      const size_t len = 1 + rng.NextUint64(30);
      Timestamp t = static_cast<Timestamp>(rng.NextUint64(100));
      for (size_t j = 0; j < len; ++j) {
        list.push_back(t += static_cast<Timestamp>(rng.NextUint64(5)));
      }
      lists.push_back(std::move(list));
    }
    EXPECT_EQ(MergeLists(lists), ConcatAndSort(lists)) << "k=" << k;
  }
}

// --- Bitmap union of dense sets --------------------------------------------

TEST(MergeSortedRunsBitmapTest, DenseSetsAcrossTheCrossoverMatchOracle) {
  // Densities per slot from 1/128 to 1: the sparse side must keep the
  // comparison paths, the dense side must take the bitmap, and both must
  // match the oracle for every run count k = 3..64.
  const double densities[] = {1.0 / 128, 1.0 / 96, 1.0 / 64, 1.0 / 48,
                              1.0 / 32,  1.0 / 8,  0.5,      1.0};
  Rng rng(311);
  for (size_t k = 3; k <= 64; ++k) {
    for (const double density : densities) {
      const uint64_t span = 64 * 8 * k;
      const Timestamp lo = static_cast<Timestamp>(rng.NextUint64(1000));
      const std::vector<TimestampList> lists =
          DealtSet(&rng, k, lo, span, density);
      TimestampList want = ConcatAndSort(lists);
      MergeScratch scratch;
      MergeCounters counters;
      EXPECT_EQ(MergeWith(lists, &scratch, &counters), want)
          << "k=" << k << " density=" << density;
      EXPECT_EQ(counters.timestamps_merged, want.size());
      const uint64_t words =
          static_cast<uint64_t>(want.back() - want.front()) / 64 + 1;
      EXPECT_EQ(TookBitmap(scratch), words <= want.size())
          << "k=" << k << " density=" << density;
    }
  }
}

TEST(MergeSortedRunsBitmapTest, DuplicatesFallBackAndAreKept) {
  // Dense enough for the bitmap, but timestamps repeat across runs (and
  // once inside a run): the kernel must fall back and keep every copy.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t k = 3 + rng.NextUint64(20);
    std::vector<TimestampList> lists = DealtSet(&rng, k, -500, 1024, 0.7);
    const size_t from = rng.NextUint64(k);
    const size_t to = (from + 1 + rng.NextUint64(k - 1)) % k;
    lists[to].push_back(lists[from][rng.NextUint64(lists[from].size())]);
    std::sort(lists[to].begin(), lists[to].end());
    if (trial % 2 == 0) {
      lists[from].insert(lists[from].begin(), lists[from].front());
    }
    EXPECT_EQ(MergeLists(lists), ConcatAndSort(lists)) << "trial=" << trial;
  }
  EXPECT_EQ(MergeLists({{1, 2, 3}, {3, 4}, {0, 3, 5}}),
            (TimestampList{0, 1, 2, 3, 3, 3, 4, 5}));
}

TEST(MergeSortedRunsBitmapTest, NegativeTimestampsMatchOracle) {
  Rng rng(17);
  for (const Timestamp lo : {Timestamp{-100000}, Timestamp{-700},
                             Timestamp{-64}, Timestamp{-1}}) {
    const std::vector<TimestampList> lists = DealtSet(&rng, 7, lo, 1400, 0.4);
    MergeScratch scratch;
    EXPECT_EQ(MergeWith(lists, &scratch), ConcatAndSort(lists))
        << "lo=" << lo;
    EXPECT_TRUE(TookBitmap(scratch)) << "lo=" << lo;
  }
}

TEST(MergeSortedRunsBitmapTest, Int64ExtremesNeitherOverflowNorMisplace) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  // The whole int64 range: far too sparse, so the comparison paths run,
  // and the span arithmetic must not overflow on the way.
  const std::vector<TimestampList> whole = {
      {kMin, -1, 5}, {kMin + 1, 0, kMax}, {-2, 7, kMax - 1}};
  MergeScratch scratch;
  EXPECT_EQ(MergeWith(whole, &scratch), ConcatAndSort(whole));
  EXPECT_FALSE(TookBitmap(scratch));
  // Dense sets at each end of the range take the bitmap.
  Rng rng(23);
  for (const Timestamp lo : {kMin, kMax - 999}) {
    const std::vector<TimestampList> lists = DealtSet(&rng, 9, lo, 1000, 0.5);
    MergeScratch at_end;
    EXPECT_EQ(MergeWith(lists, &at_end), ConcatAndSort(lists))
        << "lo=" << lo;
    EXPECT_TRUE(TookBitmap(at_end)) << "lo=" << lo;
  }
  const std::vector<TimestampList> both_ends = {
      {kMin, kMin + 2}, {kMin + 1}, {kMin + 3, kMin + 63}};
  MergeScratch one_word;
  EXPECT_EQ(MergeWith(both_ends, &one_word), ConcatAndSort(both_ends));
  EXPECT_TRUE(TookBitmap(one_word));
  EXPECT_EQ(MergeLists({{kMax - 2, kMax}, {kMax - 1}, {kMax - 5}}),
            (TimestampList{kMax - 5, kMax - 2, kMax - 1, kMax}));
}

TEST(MergeSortedRunsBitmapTest, RunsWithinOneWord) {
  // Spans of 1..64 slots, each one bitmap word, at several alignments.
  for (const Timestamp lo : {Timestamp{0}, Timestamp{-64}, Timestamp{37},
                             Timestamp{-5}}) {
    for (Timestamp width = 3; width <= 64; ++width) {
      std::vector<TimestampList> lists(3);
      for (Timestamp t = 0; t < width; ++t) {
        lists[static_cast<size_t>(t % 3)].push_back(lo + t);
      }
      MergeScratch scratch;
      EXPECT_EQ(MergeWith(lists, &scratch), ConcatAndSort(lists))
          << "lo=" << lo << " width=" << width;
      EXPECT_TRUE(TookBitmap(scratch)) << "lo=" << lo << " width=" << width;
    }
  }
}

TEST(MergeSortedRunsBitmapTest, OneScratchServesEveryPathInBothOrders) {
  // One input per path; a stale bitmap word, ping-pong slab or cursor
  // from the previous call must never leak into the next one, whichever
  // path ran before.
  Rng rng(8);
  std::vector<std::vector<TimestampList>> inputs;
  inputs.push_back(DealtSet(&rng, 12, 100, 4000, 0.6));  // Bitmap, wide.
  inputs.push_back({{4, 6, 9}});                        // Copy.
  inputs.push_back({{1, 3, 5}, {2, 4, 6}});             // Two runs.
  inputs.push_back({{1, 9}, {7}, {3, 4}, {2}});         // Fragmented sort.
  inputs.push_back(RandomLists(&rng, 10, 60, 1 << 20));  // Mergesort.
  inputs.push_back(DealtSet(&rng, 5, -40, 300, 0.9));   // Bitmap, narrow.
  std::vector<TimestampList> duplicated = DealtSet(&rng, 6, 0, 640, 0.8);
  duplicated[1].push_back(duplicated[0].back());
  std::sort(duplicated[1].begin(), duplicated[1].end());
  inputs.push_back(duplicated);  // Bitmap tried, falls back.
  for (const bool reversed : {false, true}) {
    MergeScratch scratch;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const size_t at = reversed ? inputs.size() - 1 - i : i;
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(MergeWith(inputs[at], &scratch), ConcatAndSort(inputs[at]))
            << "input=" << at << " reversed=" << reversed;
      }
    }
    EXPECT_GE(scratch.ByteFootprint(),
              scratch.bits.capacity() * sizeof(uint64_t));
  }
}

}  // namespace
}  // namespace rpm
