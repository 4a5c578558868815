// mine_sparse and mine_dense: closed-loop `rpminer mine` jobs, one at a
// time, each calling the real CLI in-process (tools::RunRpminer) on a
// .tspmf file written at set-up, alternating --threads=1 and
// --threads=LoadThreads().
//
// Why two: on T10I4D100K (sparse, fragmented runs, 1.3+ MB of JSON) load,
// RP-list, tree build and export are a large share of the job, so those
// layers move job time; on the dense burst stream the tree build is tiny
// and merge + gate dominate, so mining-kernel changes show there and
// tree-build changes should not.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "workloads.h"

namespace rpmbench {

namespace {

struct MineSpec {
  const char* name;
  double scale;
  rpm::Timestamp per;
  double min_ps_fraction;  ///< < 0: min_ps_absolute is used.
  uint64_t min_ps_absolute;
  uint64_t min_rec;
};

/// Schedule-invariant counters the CLI prints in its stderr summary.
struct Counters {
  unsigned long long merge_calls = 0, runs = 0, timestamps = 0;
  unsigned long long gate_lists = 0, gate_gaps = 0;
  bool parsed = false;
  bool operator==(const Counters&) const = default;
};

Counters ParseSummary(const std::string& err) {
  Counters c;
  const size_t merge = err.find("[merge ");
  const size_t gate = err.find("[gate ");
  if (merge == std::string::npos || gate == std::string::npos) return c;
  const int merged = std::sscanf(err.c_str() + merge,
                                 "[merge %llu calls / %llu runs / %llu ts",
                                 &c.merge_calls, &c.runs, &c.timestamps);
  const int gated =
      std::sscanf(err.c_str() + gate, "[gate %*s %llu lists / %llu gaps",
                  &c.gate_lists, &c.gate_gaps);
  c.parsed = merged == 3 && gated == 2;
  return c;
}

struct Job {
  int exit_code = -1;
  double wall_s = 0.0;
  uint64_t hash = 0;
  size_t output_bytes = 0;
  Counters counters;
};

Job RunCliJob(const std::vector<std::string>& args, Report* report) {
  std::string out, err;
  const CpuStamp before = ReadCpu();
  Job job;
  job.exit_code = RunCli(args, &out, &err);
  const CpuStamp after = ReadCpu();
  job.wall_s = std::chrono::duration<double>(after.wall - before.wall).count();
  report->AddSlice(SliceBetween(before, after));
  job.hash = Fnv1a(out);
  job.output_bytes = out.size();
  job.counters = ParseSummary(err);
  return job;
}

}  // namespace

void RunMine(const RunOptions& options, bool dense, Report* report,
             Tracer* tracer) {
  // Dense data takes the classic high relative threshold (5 %) to keep the
  // lattice bounded; T10I4D100K takes Table 4's 0.1 % (100 of 100k).
  const bool smoke = options.smoke;
  const MineSpec spec =
      dense ? MineSpec{"mine_dense", smoke ? 0.5 : 1.0, 360, 0.05, 0, 2}
            : MineSpec{"mine_sparse", smoke ? 0.05 : 1.0, 1440, -1.0,
                       smoke ? 25u : 100u, 1};
  const size_t par = LoadThreads();
  const std::string path = options.out_dir + "/" + spec.name + ".tspmf";

  rpm::RpParams params;
  params.period = spec.per;
  params.min_rec = spec.min_rec;
  auto job_args = [&](size_t threads) {
    return std::vector<std::string>{
        "rpminer", "mine", "--input=" + path,
        "--per=" + std::to_string(spec.per),
        "--min-ps=" + std::to_string(params.min_ps),
        "--min-rec=" + std::to_string(spec.min_rec),
        "--output-format=json", "--threads=" + std::to_string(threads)};
  };

  // Set-up: generate, write the file, run the untimed warm-up job. Untraced
  // runs repeat it and report the median; the first warm-up's output hash
  // and counters are the reference every later job must reproduce.
  Job reference;
  std::vector<double> setups;
  const int setup_rounds = options.trace ? 1 : 3;
  for (int round = 0; round < setup_rounds; ++round) {
    const Clock::time_point begin = Clock::now();
    rpm::TransactionDatabase db =
        dense ? MakeDenseDb(options.seed, spec.scale)
              : MakeSparseDb(options.seed, spec.scale);
    params.min_ps =
        spec.min_ps_fraction < 0.0
            ? spec.min_ps_absolute
            : static_cast<uint64_t>(std::ceil(
                  spec.min_ps_fraction * static_cast<double>(db.size())));
    rpm::Status written = rpm::WriteTimestampedSpmfFile(db, path);
    report->Check(written.ok(), "write " + path + ": " + written.ToString());
    Job warm = RunCliJob(job_args(1), report);
    setups.push_back(SecondsSince(begin));
    if (round == 0) reference = warm;
    report->Check(warm.exit_code == 0 && warm.counters.parsed &&
                      warm.hash == reference.hash &&
                      warm.counters == reference.counters,
                  "warm-up job output or counters differ");
  }

  const size_t min_jobs = smoke ? 1 : 2;
  auto check_job = [&](const Job& job, size_t threads) {
    report->Check(job.exit_code == 0 && job.hash == reference.hash &&
                      job.counters == reference.counters,
                  "job at --threads=" + std::to_string(threads) +
                      " differs from the warm-up job");
  };

  const CpuStamp phase_begin = ReadCpu();
  const Clock::time_point begin = phase_begin.wall;
  if (!options.trace) {
    std::vector<double> seq_s, par_s;
    while (SecondsSince(begin) < options.seconds || seq_s.size() < min_jobs ||
           par_s.size() < min_jobs) {
      for (size_t threads : {size_t{1}, par}) {
        Job job = RunCliJob(job_args(threads), report);
        check_job(job, threads);
        (threads == 1 ? seq_s : par_s).push_back(job.wall_s);
      }
    }
    const CpuSlice phase = SliceBetween(phase_begin, ReadCpu());
    std::vector<double> all_s = seq_s;
    all_s.insert(all_s.end(), par_s.begin(), par_s.end());
    report->Add("setup_s", Median(setups), "s", setups.size());
    report->Add("ops_per_s", static_cast<double>(all_s.size()) / Sum(all_s),
                "1/s", all_s.size());
    AddLatencyMetrics(seq_s, report);
    report->Add("mine.job_s", Median(seq_s), "s", seq_s.size());
    report->Add("mine.job_par_s", Median(par_s), "s", par_s.size());
    report->Add("mine.output_mb",
                static_cast<double>(reference.output_bytes) / 1e6, "MB");
    report->Add("proc.cpu_util", phase.process_cores, "cores");
    return;
  }

  // Traced run: per round, one untraced CLI job (the reference for the
  // CLI's own time), then the same job replayed through the phase-split
  // API with recording on and again with it off (the overhead pair).
  std::vector<double> cli_s, traced_s, untraced_s;
  CoreReplay first;
  uint64_t id = 0;
  while (SecondsSince(begin) < options.seconds || cli_s.empty()) {
    Job job = RunCliJob(job_args(1), report);
    check_job(job, 1);
    cli_s.push_back(job.wall_s);
    for (bool on : {true, false}) {
      tracer->set_enabled(on);
      const CpuStamp before = ReadCpu();
      Span root(tracer, "mine.job", ++id);
      Span load(tracer, "timeseries.load", id, root.slot());
      auto snapshot = rpm::engine::DatasetSnapshot::Load(path, "tspmf");
      load.Stop();
      report->Check(snapshot.ok(), "replay load failed");
      if (!snapshot.ok()) break;
      CoreReplay replay =
          ReplayCore(tracer, id, root.slot(), (*snapshot)->db(), params, 0);
      (on ? traced_s : untraced_s).push_back(root.Stop());
      report->AddSlice(SliceBetween(before, ReadCpu()));
      report->Check(Fnv1a(replay.patterns_json) == reference.hash &&
                        replay.consistent &&
                        replay.stats.merge_invocations ==
                            reference.counters.merge_calls &&
                        replay.stats.timestamps_merged ==
                            reference.counters.timestamps &&
                        replay.stats.gate_gaps_scanned ==
                            reference.counters.gate_gaps,
                    "replay differs from the CLI job");
      if (id == 1) first = std::move(replay);
    }
  }
  tracer->set_enabled(false);
  const CpuSlice phase = SliceBetween(phase_begin, ReadCpu());

  AddCoreLayerMetrics(*tracer, first, report);
  // The CLI's own time: the job minus the layer calls a job makes (one
  // load, prepare, clone, sequential mine and export).
  double layers_s = 0.0;
  for (const char* span : {"timeseries.load", "core.prepare",
                           "core.rp_tree.clone", "core.mine",
                           "analysis.export"}) {
    layers_s += Median(tracer->Durations(span));
  }
  const double cli_job_s = Median(cli_s);
  AddLatencyMetrics(cli_s, report);
  report->Add("tools.cli_self_ms", (cli_job_s - layers_s) * 1e3, "ms",
              cli_s.size());
  report->Add("tools.cli_self_share", (cli_job_s - layers_s) / cli_job_s,
              "share", cli_s.size());
  report->Add("trace.overhead", Sum(traced_s) / Sum(untraced_s) - 1.0,
              "share", traced_s.size());
  report->Add("proc.cpu_util", phase.process_cores, "cores");
  AddAbsentLayerMetrics("mine", report);
}

}  // namespace rpmbench
