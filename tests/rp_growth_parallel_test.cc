// Parallel RP-growth must be indistinguishable from the sequential miner:
// identical pattern sets, identical canonical order, identical
// thread-invariant stats counters — for every thread count, on every
// dataset family. Also covers sink serialization and the thread pool.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/rp_growth.h"
#include "rpm/core/thread_pool.h"
#include "rpm/gen/paper_datasets.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::DenseBurstDb;
using ::rpm::testing::DenseBurstParams;
using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;

constexpr size_t kThreadCounts[] = {2, 4, 8};

/// Asserts the parallel run at `threads` equals `sequential` bit-for-bit:
/// patterns, order, and the counters that must not depend on scheduling.
void ExpectMatchesSequential(const TransactionDatabase& db,
                             const RpParams& params,
                             const RpGrowthResult& sequential,
                             size_t threads,
                             const RpGrowthOptions& base = {}) {
  RpGrowthOptions options = base;
  options.num_threads = threads;
  RpGrowthResult parallel = MineRecurringPatterns(db, params, options);
  ASSERT_EQ(parallel.patterns.size(), sequential.patterns.size())
      << "threads=" << threads;
  for (size_t i = 0; i < sequential.patterns.size(); ++i) {
    EXPECT_EQ(parallel.patterns[i], sequential.patterns[i])
        << "threads=" << threads << " index=" << i << "\nparallel: "
        << parallel.patterns[i].ToString()
        << "\nsequential: " << sequential.patterns[i].ToString();
  }
  EXPECT_EQ(parallel.stats.num_items, sequential.stats.num_items);
  EXPECT_EQ(parallel.stats.num_candidate_items,
            sequential.stats.num_candidate_items);
  EXPECT_EQ(parallel.stats.initial_tree_nodes,
            sequential.stats.initial_tree_nodes);
  EXPECT_EQ(parallel.stats.conditional_trees,
            sequential.stats.conditional_trees)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.patterns_examined,
            sequential.stats.patterns_examined)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.patterns_emitted,
            sequential.stats.patterns_emitted)
      << "threads=" << threads;
  // The merge-kernel and gate-scan counters are schedule-invariant: the
  // parallel miner performs exactly the sequential miner's merges and gate
  // scans, only distributed over workers (each worker collects and merges
  // its rank's TS^beta from the same runs in the same order, and each
  // rank's conditional recursion is identical). Only the
  // scratch byte figures may differ — they follow the per-worker pools.
  EXPECT_EQ(parallel.stats.merge_invocations,
            sequential.stats.merge_invocations)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.runs_merged, sequential.stats.runs_merged)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.timestamps_merged,
            sequential.stats.timestamps_merged)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.gate_lists_scanned,
            sequential.stats.gate_lists_scanned)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.gate_gaps_scanned,
            sequential.stats.gate_gaps_scanned)
      << "threads=" << threads;
  EXPECT_EQ(parallel.stats.support_pruned, sequential.stats.support_pruned)
      << "threads=" << threads;
}

TEST(RpGrowthParallelTest, PaperExampleAllThreadCounts) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, PaperExampleFullThresholdGrid) {
  // The same grid paper_grid_test checks against the oracle, here checked
  // parallel-vs-sequential.
  TransactionDatabase db = PaperExampleDb();
  for (Timestamp per : {1, 2, 3, 4, 5, 7, 13, 20}) {
    for (uint64_t min_ps : {1u, 2u, 3u, 4u, 6u, 12u}) {
      for (uint64_t min_rec : {1u, 2u, 3u, 4u}) {
        RpParams params;
        params.period = per;
        params.min_ps = min_ps;
        params.min_rec = min_rec;
        RpGrowthResult sequential = MineRecurringPatterns(db, params);
        for (size_t threads : kThreadCounts) {
          ExpectMatchesSequential(db, params, sequential, threads);
        }
      }
    }
  }
}

TEST(RpGrowthParallelTest, QuestMini) {
  TransactionDatabase db = gen::MakeT10I4D100K(0.01, 99);
  RpParams params;
  params.period = 30;
  params.min_ps = 5;
  params.min_rec = 2;
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, SparseQuestMatchesSequential) {
  // The wide-root sparse shape of the benchmark's mine_sparse workload:
  // hundreds of suffix items, most with many short paths, so the
  // workers' path walks over the shared sealed tree dominate the parallel
  // phase.
  TransactionDatabase db = gen::MakeT10I4D100K(0.05);
  RpParams params;
  params.period = 1440;
  params.min_ps = 25;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, ClickstreamMini) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 77);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(shop.db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, HashtagMini) {
  gen::GeneratedHashtagStream twitter = gen::MakeTwitter(0.01, 88);
  RpParams params;
  params.period = 60;
  params.min_ps = 25;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(twitter.db, params);
  EXPECT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(twitter.db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, DenseBurstMatchesSequential) {
  const TransactionDatabase db = DenseBurstDb();
  const RpParams params = DenseBurstParams(db);
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  ASSERT_GT(sequential.patterns.size(), 0u);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads);
  }
}

TEST(RpGrowthParallelTest, SupportOnlyPruningMatchesToo) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 9);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthOptions naive;
  naive.pruning = PruningMode::kSupportOnly;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params, naive);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(shop.db, params, sequential, threads, naive);
  }
}

TEST(RpGrowthParallelTest, MaxPatternLengthRespected) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthOptions capped;
  capped.max_pattern_length = 1;
  RpGrowthResult sequential = MineRecurringPatterns(db, params, capped);
  for (size_t threads : kThreadCounts) {
    ExpectMatchesSequential(db, params, sequential, threads, capped);
  }
}

TEST(RpGrowthParallelTest, ZeroMeansHardwareConcurrency) {
  TransactionDatabase db = PaperExampleDb();
  RpParams params = PaperExampleParams();
  RpGrowthResult sequential = MineRecurringPatterns(db, params);
  ExpectMatchesSequential(db, params, sequential, /*threads=*/0);
}

TEST(RpGrowthParallelTest, SinkSeesEveryPatternExactlyOnce) {
  gen::GeneratedClickstream shop = gen::MakeShop14(0.01, 11);
  RpParams params;
  params.period = 120;
  params.min_ps = 20;
  params.min_rec = 1;
  RpGrowthResult sequential = MineRecurringPatterns(shop.db, params);

  RpGrowthOptions options;
  options.num_threads = 4;
  options.store_patterns = false;
  std::mutex mutex;  // The miner already serializes; guards the vector
                     // against future regressions without masking races in
                     // delivery itself being concurrent.
  std::vector<RecurringPattern> delivered;
  options.sink = [&](const RecurringPattern& p) {
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(p);
  };
  RpGrowthResult parallel = MineRecurringPatterns(shop.db, params, options);
  EXPECT_TRUE(parallel.patterns.empty());  // store_patterns=false.
  EXPECT_EQ(parallel.stats.patterns_emitted, delivered.size());
  SortPatternsCanonically(&delivered);
  ASSERT_EQ(delivered.size(), sequential.patterns.size());
  for (size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], sequential.patterns[i]);
  }
}

TEST(RpGrowthParallelTest, StatsTimersConsistent) {
  // The 4-thread mine must be long enough (~60 ms on a 4-core host) that
  // pool start-up and a late-scheduled worker are a small share of it: on
  // a ~1 ms mine the CPU/wall bound below failed when a worker started
  // late.
  gen::GeneratedClickstream shop = gen::MakeShop14(0.25, 12);
  RpParams params;
  params.period = 120;
  params.min_ps = 10;
  params.min_rec = 1;
  RpGrowthOptions options;
  options.num_threads = 4;
  options.store_patterns = false;  // Only the timers are checked.
  RpGrowthResult result = MineRecurringPatterns(shop.db, params, options);
  EXPECT_GE(result.stats.threads_used, 1u);
  EXPECT_LE(result.stats.threads_used, 4u);
  EXPECT_GE(result.stats.mine_cpu_seconds, 0.0);
  EXPECT_GE(result.stats.total_seconds, 0.0);
  // total_seconds is wall clock, not a phase sum: it must cover the
  // mining phase's wall time but not necessarily the summed CPU time.
  EXPECT_GE(result.stats.total_seconds, result.stats.mine_seconds);
  // mine_cpu_seconds is the workers' busy time, so it cannot fall far
  // below the phase's wall time (the rest is ranking the subproblems, pool
  // start-up and the commit walk).
  EXPECT_GE(result.stats.mine_cpu_seconds, 0.5 * result.stats.mine_seconds);
  // Each worker is busy inside the phase only, so the summed busy time
  // never exceeds threads_used times the phase's wall time.
  EXPECT_LE(result.stats.mine_cpu_seconds,
            static_cast<double>(result.stats.threads_used) *
                result.stats.mine_seconds);

  RpGrowthOptions sequential_options;
  sequential_options.store_patterns = false;
  RpGrowthResult sequential =
      MineRecurringPatterns(shop.db, params, sequential_options);
  EXPECT_EQ(sequential.stats.threads_used, 1u);
  EXPECT_DOUBLE_EQ(sequential.stats.mine_cpu_seconds,
                   sequential.stats.mine_seconds);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  for (size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    constexpr size_t kItems = 1000;
    std::vector<std::atomic<int>> visits(kItems);
    ParallelFor(kItems, workers, [&](size_t worker, size_t i) {
      (void)worker;
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  std::atomic<size_t> max_worker{0};
  ParallelFor(256, 4, [&](size_t worker, size_t i) {
    (void)i;
    size_t seen = max_worker.load();
    while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_LT(max_worker.load(), 4u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
  EXPECT_GE(ResolveThreadCount(0), 1u);  // Hardware concurrency, >= 1.
}

}  // namespace
}  // namespace rpm
