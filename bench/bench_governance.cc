// Governance-overhead benchmark (DESIGN.md §7): the cost of mining WITH a
// budget attached (deadline + memory + pattern-cap checkpoints active but
// never tripping) versus the ungoverned baseline, on the scaled Twitter
// stream.
//
// The governed-mining contract is that checkpoints are cheap enough to
// leave on: a countdown-gated probe every kCheckpointStride subproblem
// steps, one relaxed atomic load on the fast path. This bench enforces
// that contract as a gate — if the aggregate mine-phase overhead exceeds
// 2% (and more than a millisecond, to keep tiny smoke scales from gating
// on noise), the bench exits nonzero. It also re-checks purity: a budget
// that never trips must not change a single pattern.
//
// Paired A/B repetitions: each rep runs both variants back to back, in
// alternating order, and the estimate per query is the median of the
// paired differences over the median baseline. A pair shares the host's
// speed phase, and the median ignores the pairs a slow phase splits; a
// min-of-reps per variant swings by several percent between runs on a
// shared host.
//
// Part of the noise is per process, not per pair (heap and code layout,
// which a pair shares), so the gated estimate is the median over
// kProcesses fresh processes of this binary, run one after another, each
// measuring RPM_BENCH_REPS (default 15) pairs per query with
// `--one-process`. Emits BENCH_governance.json (bench_util.h
// JsonRecords): one record per process and the gated TOTAL.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/rp_growth.h"
#include "rpm/gen/paper_datasets.h"

namespace {

constexpr rpm::Timestamp kPer = 1440;
constexpr double kGatePct = 2.0;
constexpr double kGateAbsSeconds = 0.001;
constexpr size_t kProcesses = 5;
static_assert(kProcesses % 2 == 1, "the gate reads the median process");

size_t RepsFromEnv() {
  const char* env = std::getenv("RPM_BENCH_REPS");
  if (env == nullptr) return 15;
  long reps = std::atol(env);
  return reps < 1 ? 1 : static_cast<size_t>(reps);
}

/// Limits generous enough that nothing ever trips, but all three governors
/// are armed — the budget object exists, every checkpoint site probes.
rpm::ResourceLimits UnhitLimits() {
  rpm::ResourceLimits limits;
  limits.timeout_ms = 3600 * 1000;                       // One hour.
  limits.memory_budget_bytes = 1ull << 40;               // 1 TiB.
  limits.max_patterns = 1ull << 40;
  return limits;
}

struct Sample {
  double mine_seconds = 0.0;
  size_t patterns = 0;
  uint64_t checkpoints = 0;
  bool truncated = false;
};

Sample RunOnce(const rpm::TransactionDatabase& db, const rpm::RpParams& params,
               bool governed) {
  rpm::RpGrowthOptions options;
  rpm::QueryBudget budget(UnhitLimits(), /*cancel=*/nullptr);
  if (governed) options.budget = &budget;
  rpm::RpGrowthResult result = rpm::MineRecurringPatterns(db, params, options);
  Sample sample;
  sample.mine_seconds = result.stats.mine_seconds;
  sample.patterns = result.patterns.size();
  sample.checkpoints = governed ? budget.usage().checkpoints : 0;
  sample.truncated = result.truncated;
  return sample;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double OverheadPct(double baseline, double governed) {
  return baseline > 0.0 ? (governed - baseline) / baseline * 100.0 : 0.0;
}

/// One process's estimate, as its summary line reports it.
struct ProcessTotal {
  double baseline_seconds = 0.0;
  double governed_seconds = 0.0;
  bool pure = true;
};

constexpr char kTotalFormat[] =
    "total mine phase: baseline %lfs, governed %lfs";

/// Measures every query of the grid in this process and prints the table
/// and one summary line (kTotalFormat, then the purity verdict).
int RunOneProcess() {
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  const size_t reps = RepsFromEnv();
  rpm::gen::GeneratedHashtagStream twitter = rpm::gen::MakeTwitter(scale);

  std::vector<rpm::RpParams> grid;
  for (double frac : {0.02, 0.05}) {
    for (uint64_t min_rec : {uint64_t{1}, uint64_t{2}}) {
      grid.push_back(*rpm::MakeParamsWithMinPsFraction(
          kPer, frac, min_rec, twitter.db.size()));
    }
  }

  std::printf("%-28s %10s %14s %14s %9s %12s\n", "query", "patterns",
              "baseline_ms", "governed_ms", "overhead", "checkpoints");
  double baseline_total = 0.0;
  double governed_total = 0.0;
  bool pure = true;
  for (const rpm::RpParams& params : grid) {
    // Warm both paths once (first touch pays allocator/page-fault costs).
    const Sample cold_base = RunOnce(twitter.db, params, /*governed=*/false);
    const Sample cold_gov = RunOnce(twitter.db, params, /*governed=*/true);
    if (cold_gov.patterns != cold_base.patterns || cold_gov.truncated) {
      std::fprintf(stderr, "PURITY VIOLATION: unhit budget changed results\n");
      pure = false;
    }
    std::vector<double> base_samples;
    std::vector<double> deltas;
    uint64_t checkpoints = cold_gov.checkpoints;
    for (size_t r = 0; r < reps; ++r) {
      const bool governed_first = r % 2 == 1;
      const Sample first = RunOnce(twitter.db, params, governed_first);
      const Sample second = RunOnce(twitter.db, params, !governed_first);
      const Sample& b = governed_first ? second : first;
      const Sample& g = governed_first ? first : second;
      base_samples.push_back(b.mine_seconds);
      deltas.push_back(g.mine_seconds - b.mine_seconds);
      checkpoints = g.checkpoints;
    }
    const double base_s = Median(base_samples);
    const double gov_s = base_s + Median(deltas);
    baseline_total += base_s;
    governed_total += gov_s;
    const double overhead_pct = OverheadPct(base_s, gov_s);
    const std::string label =
        "minPS=" + std::to_string(params.min_ps) +
        " minRec=" + std::to_string(params.min_rec);
    std::printf("%-28s %10zu %14.4f %14.4f %8.2f%% %12llu\n", label.c_str(),
                cold_base.patterns, base_s * 1e3, gov_s * 1e3,
                overhead_pct, static_cast<unsigned long long>(checkpoints));
  }
  std::printf(kTotalFormat, baseline_total, governed_total);
  std::printf(", patterns %s\n", pure ? "unchanged" : "CHANGED");
  return 0;
}

/// Runs `argv0 --one-process` and parses its summary line; echoes the
/// child's output. False if the child failed or printed no summary.
bool RunChild(const std::string& self, ProcessTotal* total) {
  const std::string command = "'" + self + "' --one-process";
  FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return false;
  bool parsed = false;
  char line[512];
  while (std::fgets(line, sizeof(line), child) != nullptr) {
    std::fputs(line, stdout);
    if (std::sscanf(line, kTotalFormat, &total->baseline_seconds,
                    &total->governed_seconds) == 2) {
      parsed = true;
      total->pure = std::strstr(line, "patterns unchanged") != nullptr;
    }
  }
  std::fflush(stdout);
  return pclose(child) == 0 && parsed;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--one-process") == 0) {
    return RunOneProcess();
  }
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  PrintHeader("Governance overhead: budget checkpoints armed vs ungoverned",
              "resource-governed mining (DESIGN.md §7); dataset of Fig. 7-9");
  std::printf("scale %.3f, %zu processes of %zu paired reps per query, "
              "gate %.1f%% on the median process\n\n",
              scale, kProcesses, RepsFromEnv(), kGatePct);
  PrintDataset("twitter", rpm::gen::MakeTwitter(scale).db);
  std::fflush(stdout);

  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "cannot locate this executable\n");
    return 1;
  }
  self[len] = '\0';

  JsonRecords json("governance", scale);
  std::vector<ProcessTotal> totals;
  bool pure = true;
  for (size_t p = 0; p < kProcesses; ++p) {
    std::printf("\n-- process %zu of %zu\n", p + 1, kProcesses);
    std::fflush(stdout);
    ProcessTotal total;
    if (!RunChild(self, &total)) {
      std::fprintf(stderr, "process %zu failed\n", p + 1);
      return 1;
    }
    pure = pure && total.pure;
    totals.push_back(total);
    json.BeginRecord();
    json.Add("query", "process " + std::to_string(p + 1));
    json.Add("baseline_mine_seconds", total.baseline_seconds);
    json.Add("governed_mine_seconds", total.governed_seconds);
    json.Add("overhead_pct",
             OverheadPct(total.baseline_seconds, total.governed_seconds));
  }

  // The gated estimate is the process with the median overhead (the
  // process count is odd).
  std::printf("\nper-process overhead:");
  for (const ProcessTotal& t : totals) {
    std::printf(" %+.2f%%",
                OverheadPct(t.baseline_seconds, t.governed_seconds));
  }
  std::sort(totals.begin(), totals.end(),
            [](const ProcessTotal& a, const ProcessTotal& b) {
              return OverheadPct(a.baseline_seconds, a.governed_seconds) <
                     OverheadPct(b.baseline_seconds, b.governed_seconds);
            });
  const ProcessTotal& median = totals[totals.size() / 2];
  const double total_pct =
      OverheadPct(median.baseline_seconds, median.governed_seconds);
  const double delta = median.governed_seconds - median.baseline_seconds;
  const bool gate_ok =
      pure && !(total_pct > kGatePct && delta > kGateAbsSeconds);
  std::printf("\nmedian of %zu processes: baseline %.4fs, governed %.4fs "
              "(%+.2f%%) — gate %s\n",
              kProcesses, median.baseline_seconds, median.governed_seconds,
              total_pct, gate_ok ? "PASS" : "FAIL");

  json.BeginRecord();
  json.Add("query", "TOTAL");
  json.Add("baseline_mine_seconds", median.baseline_seconds);
  json.Add("governed_mine_seconds", median.governed_seconds);
  json.Add("overhead_pct", total_pct);
  json.Add("gate_passed", static_cast<uint64_t>(gate_ok ? 1 : 0));
  json.WriteFile(JsonReportPath("BENCH_governance.json"));

  if (!pure) {
    std::fprintf(stderr,
                 "governance gate FAILED: an unhit budget changed results\n");
    return 1;
  }
  if (!gate_ok) {
    std::fprintf(stderr,
                 "governance overhead gate FAILED: %+.2f%% > %.1f%% "
                 "(checkpoints must stay effectively free)\n",
                 total_pct, kGatePct);
    return 1;
  }
  return 0;
}
