// Micro-benchmarks (google-benchmark): per-component costs backing the
// end-to-end numbers — measure computation, RP-list scan, tree build,
// full mining, generators, and baseline miners on mid-size inputs.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "rpm/baselines/pf_growth.h"
#include "rpm/baselines/ppattern.h"
#include "rpm/common/random.h"
#include "rpm/common/zipf.h"
#include "rpm/core/brute_force.h"
#include "rpm/core/measures.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/rp_tree.h"
#include "rpm/core/ts_merge.h"
#include "rpm/gen/hashtag_generator.h"
#include "rpm/gen/quest_generator.h"

namespace {

using namespace rpm;

TimestampList MakeTimestamps(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimestampList ts(n);
  Timestamp cur = 0;
  for (auto& slot : ts) {
    cur += 1 + static_cast<Timestamp>(rng.NextUint64(5));
    slot = cur;
  }
  return ts;
}

const TransactionDatabase& MidQuestDb() {
  static const TransactionDatabase db = [] {
    gen::QuestParams params;
    params.num_transactions = 20000;
    params.num_items = 400;
    params.num_patterns = 400;
    return gen::GenerateQuest(params);
  }();
  return db;
}

const TransactionDatabase& MidTwitterDb() {
  static const TransactionDatabase db = [] {
    gen::HashtagParams params;
    params.num_minutes = 20000;
    params.num_hashtags = 300;
    params.num_random_events = 8;
    return gen::GenerateHashtagStream(params).db;
  }();
  return db;
}

/// 3,840 minutes of a 50-tag burst stream: every minute carries a row,
/// and planted 2-4 tag events recur across most of them.
const TransactionDatabase& SmallDenseDb() {
  static const TransactionDatabase db = [] {
    gen::HashtagParams params;
    params.num_minutes = 3840;
    params.num_hashtags = 50;
    params.background_rate = 1.0;
    params.daily_dropout_base = 0.0;
    params.daily_dropout_slope = 0.0;
    params.num_random_events = 4;
    params.min_event_tags = 2;
    params.max_event_tags = 4;
    params.min_event_minutes = 1440;
    params.max_event_minutes = 2880;
    params.event_fire_prob = 0.9;
    return gen::GenerateHashtagStream(params).db;
  }();
  return db;
}

/// `k` sorted runs of `run_len` timestamps each, interleaved over a
/// shared range — the merge kernel's adversarial shape (every run
/// contends at every step).
std::vector<TimestampList> MakeInterleavedRuns(size_t k, size_t run_len,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<TimestampList> lists(k);
  for (TimestampList& list : lists) {
    Timestamp cur = static_cast<Timestamp>(rng.NextUint64(16));
    list.reserve(run_len);
    for (size_t i = 0; i < run_len; ++i) {
      cur += 1 + static_cast<Timestamp>(rng.NextUint64(7));
      list.push_back(cur);
    }
  }
  return lists;
}

/// MergeSortedRuns on k interleaved runs (run length = range(0)) against
/// BM_ConcatSortOracle below — the kernel must win as run length grows and
/// match at run length ~2.
void BM_MergeSortedRuns(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t run_len = static_cast<size_t>(state.range(1));
  std::vector<TimestampList> lists = MakeInterleavedRuns(k, run_len, 11);
  std::vector<TsRun> runs;
  for (const TimestampList& list : lists) AppendSortedRuns(list, &runs);
  MergeScratch scratch;
  MergeCounters counters;
  TimestampList out;
  for (auto _ : state) {
    MergeSortedRuns(runs.data(), runs.size(), &out, &scratch, &counters);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * k * run_len);
}
BENCHMARK(BM_MergeSortedRuns)
    ->Args({64, 2})
    ->Args({64, 16})
    ->Args({64, 128})
    ->Args({8, 1024})
    ->Args({512, 16});

/// A set of about 4,096 timestamps filling its span at one timestamp per
/// `slots_per_ts` slots, dealt at random into `k` sorted runs: the shape
/// of TS^{beta+i} on a dense stream (a pattern base's paths partition a
/// set).
std::vector<TimestampList> MakeDenseSet(size_t k, uint64_t slots_per_ts) {
  constexpr uint64_t kTimestamps = 4096;
  Rng rng(29);
  std::vector<TimestampList> lists(k);
  for (uint64_t slot = 0; slot < kTimestamps * slots_per_ts; ++slot) {
    if (rng.NextUint64(slots_per_ts) != 0) continue;
    lists[rng.NextUint64(k)].push_back(static_cast<Timestamp>(slot));
  }
  return lists;
}

/// The merge kernel on dense sets with the bitmap union forced on
/// (range(2) = 1) or off (0): range(0) = k runs, range(1) = slots per
/// timestamp (1 = every slot filled, 128 = 1/128). Where the two cross
/// sets the kernel's kBitmapMaxSlotsPerTimestamp; EXPERIMENTS.md, "Bitmap
/// union", records the table.
void BM_MergeDenseRange(benchmark::State& state) {
  const std::vector<TimestampList> lists =
      MakeDenseSet(static_cast<size_t>(state.range(0)),
                   static_cast<uint64_t>(state.range(1)));
  // Any limit above the sparsest density benched forces the bitmap on.
  const uint64_t limit = state.range(2) != 0 ? 1024 : 0;
  std::vector<TsRun> runs;
  size_t total = 0;
  for (const TimestampList& list : lists) {
    AppendSortedRuns(list, &runs);
    total += list.size();
  }
  MergeScratch scratch;
  MergeCounters counters;
  TimestampList out(total);
  for (auto _ : state) {
    MergeWithBitmapLimitInto(runs.data(), runs.size(), out.data(), &scratch,
                             &counters, limit);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(total));
}
BENCHMARK(BM_MergeDenseRange)->ArgsProduct({{3, 8, 32},
                                            {128, 64, 32, 16, 4, 1},
                                            {0, 1}});

/// The computation MergeSortedRuns replaced, on identical inputs.
void BM_ConcatSortOracle(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t run_len = static_cast<size_t>(state.range(1));
  std::vector<TimestampList> lists = MakeInterleavedRuns(k, run_len, 11);
  TimestampList out;
  for (auto _ : state) {
    out.clear();
    for (const TimestampList& list : lists) {
      out.insert(out.end(), list.begin(), list.end());
    }
    std::sort(out.begin(), out.end());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * k * run_len);
}
BENCHMARK(BM_ConcatSortOracle)
    ->Args({64, 2})
    ->Args({64, 16})
    ->Args({64, 128})
    ->Args({8, 1024})
    ->Args({512, 16});

/// Fused gate+intervals vs the two-pass formulation it replaced.
void BM_FusedGateAndIntervals(benchmark::State& state) {
  TimestampList ts = MakeTimestamps(static_cast<size_t>(state.range(0)), 2);
  RpParams params;
  params.period = 4;
  params.min_ps = 3;
  params.min_rec = 2;
  std::vector<PeriodicInterval> intervals;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeGateAndIntervals(ts, params, &intervals).passes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedGateAndIntervals)->Range(1 << 5, 1 << 18);

/// The masked (break-mask column + bit-walk) gate on the same inputs as
/// BM_FusedGateAndIntervals. The pair informs kMaskedScanMinGaps, the
/// list length from which the miners take the masked path (measures.cc).
void BM_MaskedGateAndIntervals(benchmark::State& state) {
  TimestampList ts = MakeTimestamps(static_cast<size_t>(state.range(0)), 2);
  RpParams params;
  params.period = 4;
  params.min_ps = 3;
  params.min_rec = 2;
  std::vector<PeriodicInterval> intervals;
  TsBlockScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeGateAndIntervals(ts, params, &intervals, &scratch, nullptr)
            .passes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaskedGateAndIntervals)->Range(1 << 5, 1 << 18);

void BM_ComputeErec(benchmark::State& state) {
  TimestampList ts = MakeTimestamps(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeErec(ts, 4, 3));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeErec)->Range(1 << 10, 1 << 18);

void BM_FindInterestingIntervals(benchmark::State& state) {
  TimestampList ts = MakeTimestamps(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindInterestingIntervals(ts, 4, 3));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FindInterestingIntervals)->Range(1 << 10, 1 << 18);

void BM_IntervalDecomposition(benchmark::State& state) {
  TimestampList ts = MakeTimestamps(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposePeriodicIntervals(ts, 4));
  }
}
BENCHMARK(BM_IntervalDecomposition)->Range(1 << 10, 1 << 16);

void BM_RpListScan(benchmark::State& state) {
  const TransactionDatabase& db = MidQuestDb();
  RpParams params;
  params.period = 100;
  params.min_ps = 20;
  params.min_rec = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRpList(db, params));
  }
  state.SetItemsProcessed(state.iterations() * db.TotalItemOccurrences());
}
BENCHMARK(BM_RpListScan);

/// One pass-2 build of `db` per iteration, through the same
/// BuildRankedTree the miner runs, over the batch RP-list's candidates, at
/// state.range(0) threads.
void TreeBuildLoop(benchmark::State& state, const TransactionDatabase& db,
                   const RpParams& params) {
  PreparedMining prepared = PrepareMining(db, params);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    TsPrefixTree tree =
        BuildRankedTree(db, prepared.items_by_rank, nullptr, threads);
    benchmark::DoNotOptimize(tree.NodeCount());
  }
  state.counters["nodes"] = static_cast<double>(prepared.initial_tree_nodes);
  state.SetItemsProcessed(state.iterations() * db.size());
}

/// Sparse side: thousands of distinct transaction shapes, so wide sibling
/// lists (the root holds one child per frequent item).
void BM_TreeBuild(benchmark::State& state) {
  RpParams params;
  params.period = 100;
  params.min_ps = 20;
  params.min_rec = 2;
  TreeBuildLoop(state, MidQuestDb(), params);
}
BENCHMARK(BM_TreeBuild)->Arg(1)->Arg(4);

/// Dense side: a few thousand rows of a small burst-dominated tag universe
/// (the shape of a windowed miner's per-delta sub-mine), so few, narrow
/// sibling lists and long shared prefixes.
void BM_TreeBuildDense(benchmark::State& state) {
  RpParams params;
  params.period = 60;
  params.min_ps = 20;
  params.min_rec = 1;
  TreeBuildLoop(state, SmallDenseDb(), params);
}
BENCHMARK(BM_TreeBuildDense)->Arg(1)->Arg(4);

void BM_RpGrowthEndToEnd_Quest(benchmark::State& state) {
  const TransactionDatabase& db = MidQuestDb();
  RpParams params;
  params.period = 100;
  params.min_ps = 20;
  params.min_rec = static_cast<uint64_t>(state.range(0));
  size_t patterns = 0;
  for (auto _ : state) {
    auto result = MineRecurringPatterns(db, params);
    patterns = result.patterns.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_RpGrowthEndToEnd_Quest)->Arg(1)->Arg(2)->Arg(3);

void BM_RpGrowthEndToEnd_Twitter(benchmark::State& state) {
  const TransactionDatabase& db = MidTwitterDb();
  RpParams params;
  params.period = 360;
  params.min_ps = static_cast<uint64_t>(state.range(0));
  params.min_rec = 1;
  size_t patterns = 0;
  for (auto _ : state) {
    auto result = MineRecurringPatterns(db, params);
    patterns = result.patterns.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_RpGrowthEndToEnd_Twitter)->Arg(400)->Arg(800)->Arg(1600);

void BM_VerticalMiner(benchmark::State& state) {
  const TransactionDatabase& db = MidTwitterDb();
  RpParams params;
  params.period = 360;
  params.min_ps = 800;
  params.min_rec = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineVertical(db, params));
  }
}
BENCHMARK(BM_VerticalMiner);

void BM_PfGrowth(benchmark::State& state) {
  const TransactionDatabase& db = MidTwitterDb();
  baselines::PfParams params;
  params.min_sup = 200;
  params.max_per = 360;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinePeriodicFrequentPatterns(db, params));
  }
}
BENCHMARK(BM_PfGrowth);

void BM_PPatternMiner(benchmark::State& state) {
  const TransactionDatabase& db = MidTwitterDb();
  baselines::PPatternParams params;
  params.period = 360;
  params.min_sup = 800;
  baselines::PPatternOptions options;
  options.max_stored_patterns = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinePPatterns(db, params, options));
  }
}
BENCHMARK(BM_PPatternMiner);

void BM_QuestGeneration(benchmark::State& state) {
  gen::QuestParams params;
  params.num_transactions = static_cast<size_t>(state.range(0));
  params.num_items = 400;
  params.num_patterns = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::GenerateQuest(params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuestGeneration)->Arg(5000)->Arg(20000);

void BM_HashtagGeneration(benchmark::State& state) {
  gen::HashtagParams params;
  params.num_minutes = static_cast<size_t>(state.range(0));
  params.num_hashtags = 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::GenerateHashtagStream(params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashtagGeneration)->Arg(5000)->Arg(20000);

void BM_ZipfSampling(benchmark::State& state) {
  ZipfSampler sampler(1000, 1.05);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSampling);

void BM_TimestampsOfScan(benchmark::State& state) {
  const TransactionDatabase& db = MidTwitterDb();
  Itemset pattern = {0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.TimestampsOf(pattern));
  }
}
BENCHMARK(BM_TimestampsOfScan);

}  // namespace
