// The four workloads and the helpers they share. Each workload records its
// end-to-end metrics (untraced runs) or its per-layer metrics (traced runs)
// into the Report, and counts every output check it makes.
//
// Untraced runs report the end-to-end metrics (README.md says what one
// operation is on each workload):
//   setup_s      median of several full set-ups
//   ops_per_s    operations completed per second of operation time
//   peak_rss_mb  added by main
// Every run also reports op_ms_p50 and op_ms_tail (p99) of the operation's
// latency. They are per-layer metrics, without a bound, because they move
// by more than a tenth from run to run on a shared host.

#ifndef RPM_BENCHMARK_WORKLOADS_H_
#define RPM_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_growth.h"
#include "rpm/timeseries/transaction_database.h"
#include "trace.h"

namespace rpmbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, and `seconds` capped at 0.5: every check and metric
  /// line in seconds.
  bool smoke = false;
  /// Where inputs, the run JSON and the trace are written.
  std::string out_dir;
};

/// Worker threads of the parallel variants (and the serve connection
/// count): min(4, nproc), so load never exceeds the host.
size_t LoadThreads();

/// Runs the `rpminer` command line `args` (args[0] is the program name)
/// in-process through tools::RunRpminer; returns its exit code.
int RunCli(const std::vector<std::string>& args, std::string* out,
           std::string* err);

void RunMine(const RunOptions& options, bool dense, Report* report,
             Tracer* tracer);
void RunServe(const RunOptions& options, Report* report, Tracer* tracer);
void RunWindow(const RunOptions& options, Report* report, Tracer* tracer);

/// One traced replay of a mining job through the phase-split API, all
/// under a "core.replay" span (a child of `parent`; -1 for none):
/// PrepareMining, then Clone + MineFromPrepared at 1 thread and at
/// LoadThreads(), then separately timed BuildRpList and BuildRankedTree at
/// both thread counts, then WritePatternsJson of the result.
struct CoreReplay {
  std::vector<rpm::RecurringPattern> patterns;
  std::string patterns_json;
  rpm::RpGrowthStats stats;  ///< 1-thread MineFromPrepared.
  double par_mine_cpu_util = 0.0;
  size_t tree_nodes = 0;
  /// The parallel mine reproduced the sequential patterns and
  /// schedule-invariant counters, and the separately timed RP-list and
  /// trees match the prepared build.
  bool consistent = false;
};
CoreReplay ReplayCore(Tracer* tracer, uint64_t id, int64_t parent,
                      const rpm::TransactionDatabase& db,
                      const rpm::RpParams& params, size_t max_length);

/// Per-layer metrics of a traced run: p50 latency of the universal layer
/// spans, and the counts of the run's first core replay.
void AddCoreLayerMetrics(const Tracer& tracer, const CoreReplay& first,
                         Report* report);

/// Adds 0 for every workload-specific per-layer count or share whose
/// layer is not on this workload's path ("mine", "serve" or "window" is
/// `own_family`), so every traced run reports the full declared list.
void AddAbsentLayerMetrics(const std::string& own_family, Report* report);

/// Adds op_ms_p50 and op_ms_tail (p99) of the operation latencies.
void AddLatencyMetrics(const std::vector<double>& seconds, Report* report);

/// Adds the p50 (ms) of the spans named `span` as `metric`.
void AddSpanP50(const Tracer& tracer, const char* span,
                const std::string& metric, Report* report);

}  // namespace rpmbench

#endif  // RPM_BENCHMARK_WORKLOADS_H_
