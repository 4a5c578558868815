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
// shared host. Emits BENCH_governance.json (bench_util.h JsonRecords).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

size_t RepsFromEnv() {
  const char* env = std::getenv("RPM_BENCH_REPS");
  if (env == nullptr) return 41;
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

}  // namespace

int main() {
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  const size_t reps = RepsFromEnv();
  PrintHeader("Governance overhead: budget checkpoints armed vs ungoverned",
              "resource-governed mining (DESIGN.md §7); dataset of Fig. 7-9");
  std::printf("scale %.3f, %zu paired reps per query, gate %.1f%%\n\n",
              scale, reps, kGatePct);

  rpm::gen::GeneratedHashtagStream twitter = rpm::gen::MakeTwitter(scale);
  PrintDataset("twitter", twitter.db);

  std::vector<rpm::RpParams> grid;
  for (double frac : {0.02, 0.05}) {
    for (uint64_t min_rec : {uint64_t{1}, uint64_t{2}}) {
      grid.push_back(*rpm::MakeParamsWithMinPsFraction(
          kPer, frac, min_rec, twitter.db.size()));
    }
  }

  JsonRecords json("governance", scale);
  std::printf("\n%-28s %10s %14s %14s %9s %12s\n", "query", "patterns",
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
    const double overhead_pct =
        base_s > 0.0 ? (gov_s - base_s) / base_s * 100.0 : 0.0;
    const std::string label =
        "minPS=" + std::to_string(params.min_ps) +
        " minRec=" + std::to_string(params.min_rec);
    std::printf("%-28s %10zu %14.4f %14.4f %8.2f%% %12llu\n", label.c_str(),
                cold_base.patterns, base_s * 1e3, gov_s * 1e3,
                overhead_pct, static_cast<unsigned long long>(checkpoints));
    std::fflush(stdout);
    json.BeginRecord();
    json.Add("query", label);
    json.Add("patterns", cold_base.patterns);
    json.Add("baseline_mine_seconds", base_s);
    json.Add("governed_mine_seconds", gov_s);
    json.Add("overhead_pct", overhead_pct);
    json.Add("checkpoints", checkpoints);
  }

  const double delta = governed_total - baseline_total;
  const double total_pct =
      baseline_total > 0.0 ? delta / baseline_total * 100.0 : 0.0;
  const bool gate_ok =
      pure && !(total_pct > kGatePct && delta > kGateAbsSeconds);
  std::printf("\ntotal mine phase: baseline %.4fs, governed %.4fs "
              "(%+.2f%%) — gate %s\n",
              baseline_total, governed_total, total_pct,
              gate_ok ? "PASS" : "FAIL");

  json.BeginRecord();
  json.Add("query", "TOTAL");
  json.Add("patterns", static_cast<size_t>(0));
  json.Add("baseline_mine_seconds", baseline_total);
  json.Add("governed_mine_seconds", governed_total);
  json.Add("overhead_pct", total_pct);
  json.Add("checkpoints", static_cast<uint64_t>(gate_ok ? 1 : 0));
  json.WriteFile(JsonReportPath("BENCH_governance.json"));

  if (!gate_ok) {
    std::fprintf(stderr,
                 "governance overhead gate FAILED: %+.2f%% > %.1f%% "
                 "(checkpoints must stay effectively free)\n",
                 total_pct, kGatePct);
    return 1;
  }
  return 0;
}
