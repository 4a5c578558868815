// Thread-scaling of parallel RP-growth on the Table-7 datasets: mines one
// mining-heavy Table-4 cell per dataset at 1/2/4/8 worker threads and
// reports wall seconds, per-phase split, and speedup vs the sequential
// run (tree_s is the sequential RP-tree build at every thread count).
// Emits BENCH_parallel_scaling.json (see bench_util.h JsonRecords; the
// document header carries hardware_concurrency so readers can tell real
// scaling from a saturated host) next to the console table.
//
// Expected shape: patterns_emitted is bit-identical across thread counts
// (the bench aborts if not); mine-phase wall time falls with threads up to
// the hardware's parallelism, while the list scan and tree build stay
// sequential (their Amdahl share). On a single-core container every
// thread count costs the same — the speedup column then just documents
// that the parallel path adds no overhead.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "rpm/core/rp_growth.h"

namespace {

struct Workload {
  const char* dataset;
  const rpm::TransactionDatabase* db;
  double min_ps_frac;
  rpm::Timestamp per;
  uint64_t min_rec;
};

}  // namespace

int main() {
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  PrintHeader("Parallel scaling — RP-growth mining phase vs threads",
              "this repo's parallel extension (not in the paper)");
  std::printf("scale=%.2f (set RPM_BENCH_SCALE to change)\n\n", scale);

  rpm::TransactionDatabase quest = rpm::gen::MakeT10I4D100K(scale);
  PrintDataset("T10I4D100K", quest);
  rpm::gen::GeneratedClickstream shop = rpm::gen::MakeShop14(scale);
  PrintDataset("Shop-14", shop.db);
  rpm::gen::GeneratedHashtagStream twitter = rpm::gen::MakeTwitter(scale);
  PrintDataset("Twitter", twitter.db);
  std::printf("\n");

  // The loosest Table-4 cell per dataset (per=1440, smallest minPS,
  // minRec=1): the most mining work, where parallelism matters most.
  const std::vector<Workload> workloads = {
      {"T10I4D100K", &quest, QuestShopMinPsFractions().front(), 1440, 1},
      {"Shop-14", &shop.db, QuestShopMinPsFractions().front(), 1440, 1},
      {"Twitter", &twitter.db, TwitterMinPsFractions().front(), 1440, 1},
  };
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  JsonRecords json("parallel_scaling", scale);
  int mismatches = 0;
  std::printf("hardware_concurrency=%u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-12s %-8s %8s %10s %10s %10s %10s %9s %10s\n", "dataset",
              "threads", "patterns", "wall_s", "tree_s", "mine_s", "cpu_s",
              "speedup", "mine_spdup");
  for (const Workload& w : workloads) {
    rpm::Result<rpm::RpParams> params = rpm::MakeParamsWithMinPsFraction(
        w.per, w.min_ps_frac, w.min_rec, w.db->size());
    double base_wall = 0.0, base_mine = 0.0;
    size_t base_patterns = 0;
    for (size_t threads : thread_counts) {
      rpm::RpGrowthOptions options;
      options.num_threads = threads;
      options.store_patterns = false;  // Time mining, not result storage.
      rpm::RpGrowthResult result =
          rpm::MineRecurringPatterns(*w.db, *params, options);
      const rpm::RpGrowthStats& s = result.stats;
      if (threads == 1) {
        base_wall = s.total_seconds;
        base_mine = s.mine_seconds;
        base_patterns = s.patterns_emitted;
      } else if (s.patterns_emitted != base_patterns) {
        ++mismatches;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s at %zu threads emitted %zu "
                     "patterns vs %zu sequential\n",
                     w.dataset, threads, s.patterns_emitted, base_patterns);
      }
      const double speedup =
          s.total_seconds > 0.0 ? base_wall / s.total_seconds : 0.0;
      const double mine_speedup =
          s.mine_seconds > 0.0 ? base_mine / s.mine_seconds : 0.0;
      std::printf("%-12s %-8zu %8zu %10.3f %10.3f %10.3f %10.3f %8.2fx "
                  "%9.2fx\n",
                  w.dataset, threads, s.patterns_emitted, s.total_seconds,
                  s.tree_seconds, s.mine_seconds, s.mine_cpu_seconds, speedup,
                  mine_speedup);
      std::fflush(stdout);

      json.BeginRecord();
      json.Add("dataset", w.dataset);
      json.Add("per", static_cast<uint64_t>(w.per));
      json.Add("min_ps_frac", w.min_ps_frac);
      json.Add("min_rec", w.min_rec);
      json.Add("threads", threads);
      json.Add("threads_used", s.threads_used);
      json.Add("patterns_emitted", s.patterns_emitted);
      json.Add("wall_seconds", s.total_seconds);
      json.Add("list_seconds", s.list_seconds);
      json.Add("tree_seconds", s.tree_seconds);
      json.Add("mine_seconds", s.mine_seconds);
      json.Add("mine_cpu_seconds", s.mine_cpu_seconds);
      json.Add("speedup", speedup);
      json.Add("mine_speedup", mine_speedup);
      json.Add("scratch_bytes_peak", s.scratch_bytes_peak);
      json.Add("scratch_bytes_total", s.scratch_bytes_total);
    }
    std::printf("\n");
  }

  json.WriteFile(JsonReportPath("BENCH_parallel_scaling.json"));
  if (mismatches != 0) {
    std::fprintf(stderr, "%d determinism violation(s)\n", mismatches);
    return 1;
  }
  return 0;
}
