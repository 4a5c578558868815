// Hot-path benchmark for the merge-based ts-list kernel and the columnar
// gate: mines one mining-heavy Table-4 cell on each Table-7 dataset plus a
// dense-synthetic burst workload, at 1 and 8 worker threads, and reports
// wall seconds, phase split, the merge-kernel counters (merges / runs /
// timestamps / scratch), and the gate-scan counters (lists / gaps).
// Emits BENCH_hotpath.json (bench_util.h JsonRecords).
//
// The dense-synthetic workload is the kernel's target regime: a small
// hashtag universe dominated by long planted burst events, so transaction
// shapes repeat for stretches and tree tail-lists carry long sorted runs
// (~500 timestamps per merged run at scale 1, vs ~1.7-5 on the Table-7
// datasets). The Table-7 datasets bound the other end — heavily
// fragmented runs, where the kernel must match (not beat) the
// concat+sort path it replaced.
//
// Pre-change comparison: export RPM_BENCH_BASELINE="name:mine_s,..."
// (mine-phase seconds of the pre-kernel binary at the same scale and
// threads=1) and each record gains baseline_mine_seconds / speedup fields.
// EXPERIMENTS.md records the numbers used.
//
// The bench aborts (exit 1) if any dataset's pattern count differs across
// thread counts, or if the schedule-invariant merge counters do.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpm/core/rp_growth.h"
#include "rpm/gen/hashtag_generator.h"

namespace {

struct Workload {
  const char* dataset;
  const rpm::TransactionDatabase* db;
  double min_ps_frac;
  rpm::Timestamp per;
  uint64_t min_rec;
};

/// Dense burst stream: 50 tags, minimal background traffic, scaled count
/// of 2-6 day events firing at 0.9 — the classic "dense" shape (few
/// distinct transaction shapes, each recurring for long stretches).
rpm::gen::GeneratedHashtagStream MakeDenseSynth(double scale) {
  rpm::gen::HashtagParams p;
  p.num_minutes = static_cast<size_t>(40000 * scale);
  p.num_hashtags = 50;
  p.background_rate = 1.0;
  p.daily_dropout_base = 0.0;
  p.daily_dropout_slope = 0.0;
  // Event count scales with the stream so event overlap (and with it the
  // frequent-itemset lattice) keeps the same shape at every scale.
  p.num_random_events = static_cast<size_t>(16 * scale) + 1;
  p.min_event_tags = 2;
  p.max_event_tags = 4;
  p.min_event_windows = 1;
  p.max_event_windows = 2;
  p.min_event_minutes = 2 * 1440;
  p.max_event_minutes = 6 * 1440;
  p.event_fire_prob = 0.9;
  p.seed = 4242;
  return rpm::gen::GenerateHashtagStream(p);
}

/// Parses RPM_BENCH_BASELINE ("name:seconds,name:seconds"); returns < 0
/// when no baseline is recorded for `dataset`.
double BaselineMineSeconds(const char* dataset) {
  const char* env = std::getenv("RPM_BENCH_BASELINE");
  if (env == nullptr) return -1.0;
  const size_t name_len = std::strlen(dataset);
  for (const char* p = env; *p != '\0';) {
    const char* colon = std::strchr(p, ':');
    if (colon == nullptr) break;
    const char* end = std::strchr(colon, ',');
    if (static_cast<size_t>(colon - p) == name_len &&
        std::strncmp(p, dataset, name_len) == 0) {
      return std::atof(colon + 1);
    }
    if (end == nullptr) break;
    p = end + 1;
  }
  return -1.0;
}

}  // namespace

int main() {
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  PrintHeader("Hot-path kernel — run-aware merging on Table-7 + dense burst",
              "this repo's merge kernel (not in the paper); Table 7 datasets");
  std::printf("scale=%.2f (set RPM_BENCH_SCALE to change)\n\n", scale);

  rpm::TransactionDatabase quest = rpm::gen::MakeT10I4D100K(scale);
  PrintDataset("T10I4D100K", quest);
  rpm::gen::GeneratedClickstream shop = rpm::gen::MakeShop14(scale);
  PrintDataset("Shop-14", shop.db);
  rpm::gen::GeneratedHashtagStream twitter = rpm::gen::MakeTwitter(scale);
  PrintDataset("Twitter", twitter.db);
  rpm::gen::GeneratedHashtagStream dense = MakeDenseSynth(scale);
  PrintDataset("dense-synth", dense.db);
  std::printf("\n");

  const std::vector<Workload> workloads = {
      {"T10I4D100K", &quest, QuestShopMinPsFractions().front(), 1440, 1},
      {"Shop-14", &shop.db, QuestShopMinPsFractions().front(), 1440, 1},
      {"Twitter", &twitter.db, TwitterMinPsFractions().front(), 1440, 1},
      // Dense data takes the classic high relative threshold (cf. mushroom
      // / chess in the FIMI literature) to keep the lattice bounded.
      {"dense-synth", &dense.db, 0.05, 360, 2},
  };
  const std::vector<size_t> thread_counts = {1, 8};

  JsonRecords json("hotpath", scale);
  int violations = 0;
  std::printf("%-12s %-8s %8s %9s %9s %11s %12s %12s %11s %9s %12s\n",
              "dataset", "threads", "patterns", "wall_s", "mine_s", "merges",
              "runs", "timestamps", "scratch_B", "run_len", "gate_gaps");
  for (const Workload& w : workloads) {
    rpm::Result<rpm::RpParams> params = rpm::MakeParamsWithMinPsFraction(
        w.per, w.min_ps_frac, w.min_rec, w.db->size());
    const double baseline_mine = BaselineMineSeconds(w.dataset);
    size_t base_patterns = 0;
    size_t base_merges = 0, base_runs = 0, base_timestamps = 0;
    size_t base_gate_lists = 0, base_gate_gaps = 0, base_pruned = 0;
    for (size_t threads : thread_counts) {
      rpm::RpGrowthOptions options;
      options.num_threads = threads;
      options.store_patterns = false;  // Time mining, not result storage.
      rpm::RpGrowthResult result =
          rpm::MineRecurringPatterns(*w.db, *params, options);
      const rpm::RpGrowthStats& s = result.stats;
      if (threads == thread_counts.front()) {
        base_patterns = s.patterns_emitted;
        base_merges = s.merge_invocations;
        base_runs = s.runs_merged;
        base_timestamps = s.timestamps_merged;
        base_gate_lists = s.gate_lists_scanned;
        base_gate_gaps = s.gate_gaps_scanned;
        base_pruned = s.support_pruned;
      } else if (s.patterns_emitted != base_patterns ||
                 s.merge_invocations != base_merges ||
                 s.runs_merged != base_runs ||
                 s.timestamps_merged != base_timestamps ||
                 s.gate_lists_scanned != base_gate_lists ||
                 s.gate_gaps_scanned != base_gate_gaps ||
                 s.support_pruned != base_pruned) {
        ++violations;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s at %zu threads: patterns "
                     "%zu/%zu merges %zu/%zu runs %zu/%zu ts %zu/%zu gate "
                     "%zu/%zu gaps %zu/%zu pruned %zu/%zu\n",
                     w.dataset, threads, s.patterns_emitted, base_patterns,
                     s.merge_invocations, base_merges, s.runs_merged,
                     base_runs, s.timestamps_merged, base_timestamps,
                     s.gate_lists_scanned, base_gate_lists,
                     s.gate_gaps_scanned, base_gate_gaps, s.support_pruned,
                     base_pruned);
      }
      const double avg_run_len =
          s.runs_merged > 0
              ? static_cast<double>(s.timestamps_merged) / s.runs_merged
              : 0.0;
      std::printf("%-12s %-8zu %8zu %9.3f %9.3f %11zu %12zu %12zu %11zu "
                  "%9.2f %12zu\n",
                  w.dataset, threads, s.patterns_emitted, s.total_seconds,
                  s.mine_seconds, s.merge_invocations, s.runs_merged,
                  s.timestamps_merged, s.scratch_bytes_peak, avg_run_len,
                  s.gate_gaps_scanned);
      std::fflush(stdout);

      json.BeginRecord();
      json.Add("dataset", w.dataset);
      json.Add("per", static_cast<uint64_t>(w.per));
      json.Add("min_ps_frac", w.min_ps_frac);
      json.Add("min_rec", w.min_rec);
      json.Add("threads", threads);
      json.Add("patterns_emitted", s.patterns_emitted);
      json.Add("wall_seconds", s.total_seconds);
      json.Add("mine_seconds", s.mine_seconds);
      json.Add("list_seconds", s.list_seconds);
      json.Add("tree_seconds", s.tree_seconds);
      json.Add("merge_invocations", s.merge_invocations);
      json.Add("runs_merged", s.runs_merged);
      json.Add("timestamps_merged", s.timestamps_merged);
      json.Add("scratch_bytes_peak", s.scratch_bytes_peak);
      json.Add("scratch_bytes_total", s.scratch_bytes_total);
      json.Add("avg_run_length", avg_run_len);
      json.Add("gate_lists_scanned", s.gate_lists_scanned);
      json.Add("gate_gaps_scanned", s.gate_gaps_scanned);
      json.Add("support_pruned", s.support_pruned);
      if (baseline_mine > 0.0 && threads == 1) {
        json.Add("baseline_mine_seconds", baseline_mine);
        json.Add("speedup_vs_baseline",
                 s.mine_seconds > 0.0 ? baseline_mine / s.mine_seconds : 0.0);
      }
    }
    if (baseline_mine > 0.0) {
      std::printf("%-12s pre-change mine_s=%.3f (threads=1)\n", w.dataset,
                  baseline_mine);
    }
  }

  json.WriteFile(JsonReportPath("BENCH_hotpath.json"));
  if (violations != 0) {
    std::fprintf(stderr, "%d determinism violation(s)\n", violations);
    return 1;
  }
  return 0;
}
