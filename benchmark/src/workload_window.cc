// window_stream: WindowedMiner::ApplyDelta fed 32-transaction deltas of
// the grouped-burst monitoring stream (inputs.h), window 3,840 ticks,
// per=1, minPS=4, minRec=2.
//
// Why: a delta's sub-database |D_A| (live transactions touching the
// delta's items) is about 5 % of the window, so append, expiry, compaction
// and many small sub-mine trees dominate, with no loading, export or
// serving on the timed path. (A Twitter-like stream puts |D_A| near the
// whole window and only measures batch mining again.)

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "rpm/core/windowed_miner.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "workloads.h"

namespace rpmbench {

namespace {

constexpr size_t kDeltaTxns = 32;
constexpr size_t kWindow = WindowStream::kWindowTicks;

/// A filled, warmed window plus the stream position it has reached.
struct LiveWindow {
  std::unique_ptr<rpm::WindowedMiner> miner;
  /// Stream item id -> the id the loaded file assigned to it.
  std::vector<rpm::ItemId> ids;
  size_t next_t = 0;
  uint64_t fed_transactions = 0;
  uint64_t fed_occurrences = 0;

  std::vector<rpm::Transaction> NextBatch(const WindowStream& stream) {
    std::vector<rpm::Transaction> batch;
    batch.reserve(kDeltaTxns);
    for (size_t k = 0; k < kDeltaTxns; ++k) {
      rpm::Transaction tr = stream.At(next_t++);
      for (rpm::ItemId& item : tr.items) item = ids[item];
      std::sort(tr.items.begin(), tr.items.end());
      batch.push_back(std::move(tr));
    }
    return batch;
  }

  void Count(const std::vector<rpm::Transaction>& batch) {
    fed_transactions += batch.size();
    for (const rpm::Transaction& tr : batch) {
      fed_occurrences += tr.items.size();
    }
  }
};

/// Writes the first window of the stream to a .tspmf file, loads it back
/// (the recorded start of the stream), fills the window with it and runs
/// one window's worth of warm-up deltas.
LiveWindow SetUp(const WindowStream& stream, const rpm::RpParams& params,
                 const std::string& path, Tracer* tracer, Report* report) {
  std::vector<rpm::Transaction> first;
  for (size_t t = 0; t < kWindow; ++t) first.push_back(stream.At(t));
  rpm::Status written = rpm::WriteTimestampedSpmfFile(
      rpm::TransactionDatabase(std::move(first)), path);
  report->Check(written.ok(), "write " + path + ": " + written.ToString());

  Span load(tracer, "timeseries.load", 0);
  auto snapshot = rpm::engine::DatasetSnapshot::Load(path, "tspmf");
  load.Stop();
  report->Check(snapshot.ok(), "load " + path);
  LiveWindow live;
  live.miner = std::make_unique<rpm::WindowedMiner>(
      params, static_cast<rpm::Timestamp>(kWindow - 1));
  if (!snapshot.ok()) return live;

  const rpm::ItemDictionary& dict = (*snapshot)->dictionary();
  rpm::ItemId unseen = static_cast<rpm::ItemId>(dict.size());
  for (size_t item = 0; item < WindowStream::kItems; ++item) {
    auto id = dict.Lookup(std::to_string(item));
    live.ids.push_back(id.ok() ? *id : unseen++);
  }
  const std::vector<rpm::Transaction>& fill = (*snapshot)->db().transactions();
  live.Count(fill);
  report->Check(live.miner->ApplyDelta(fill).applied, "window fill refused");
  live.next_t = kWindow;
  for (size_t d = 0; d < kWindow / kDeltaTxns; ++d) {
    std::vector<rpm::Transaction> batch = live.NextBatch(stream);
    live.Count(batch);
    report->Check(live.miner->ApplyDelta(batch).applied,
                  "warm-up delta refused");
  }
  return live;
}

}  // namespace

void RunWindow(const RunOptions& options, Report* report, Tracer* tracer) {
  rpm::RpParams params;
  params.period = 1;
  params.min_ps = 4;
  params.min_rec = 2;
  const WindowStream stream(options.seed);
  const std::string path = options.out_dir + "/window_stream.tspmf";
  const uint64_t check_every = options.smoke ? 100 : 1000;
  // Traced runs alternate recording on and off in slices of this many
  // deltas, so both sides see the same window contents and host state.
  const uint64_t trace_slice = 200;
  // A set-up takes about 30 ms, short enough to sit inside one fast or
  // slow phase of a shared host, so untraced runs repeat it after every
  // few sampled checks and report the median over the whole run.
  const uint64_t setup_every_checks = options.smoke ? 3 : 10;

  tracer->set_enabled(options.trace);
  std::vector<double> setups;
  auto set_up = [&] {
    const Clock::time_point begin = Clock::now();
    LiveWindow fresh = SetUp(stream, params, path, tracer, report);
    setups.push_back(SecondsSince(begin));
    return fresh;
  };
  LiveWindow live = set_up();
  rpm::WindowedMiner& miner = *live.miner;

  std::vector<double> apply_s, traced_s, untraced_s, remine_s;
  double live_sum = 0.0, affected_sum = 0.0, diff_sum = 0.0;
  double subproblem_sum = 0.0;
  const rpm::WindowedCounters start = miner.counters();
  CoreReplay first;
  uint64_t deltas = 0;
  // The deltas between two sampled checks run on one CPU, the next batch on
  // the next, so the rate averages over every vCPU's slow phases instead of
  // following the one the scheduler left this single-threaded loop on.
  CpuRotation cpus;
  cpus.Next();
  const CpuStamp phase_begin = ReadCpu();
  CpuStamp slice_begin = phase_begin;
  while (SecondsSince(phase_begin.wall) < options.seconds ||
         deltas < check_every) {
    const bool on = options.trace && (deltas / trace_slice) % 2 == 0;
    tracer->set_enabled(on);
    std::vector<rpm::Transaction> batch = live.NextBatch(stream);
    Span span(tracer, "window.apply", deltas);
    rpm::PatternDelta pd = miner.ApplyDelta(batch);
    const double s = span.Stop();
    live.Count(batch);
    report->Check(pd.applied, "delta refused: " + pd.status.ToString());
    apply_s.push_back(s);
    if (options.trace) (on ? traced_s : untraced_s).push_back(s);
    live_sum += static_cast<double>(miner.live_transactions());
    affected_sum += static_cast<double>(pd.affected_items);
    subproblem_sum += static_cast<double>(pd.subproblem_transactions);
    diff_sum += static_cast<double>(pd.added.size() + pd.removed.size() +
                                    pd.changed.size());
    if (++deltas % check_every != 0) continue;

    // Sampled check, outside the timed deltas: the maintained set against
    // a batch re-mine of the live window, and the window-content counters
    // against what was fed.
    report->AddSlice(SliceBetween(slice_begin, ReadCpu()));
    tracer->set_enabled(options.trace);
    const rpm::WindowedCounters& c = miner.counters();
    report->Check(c.timestamps_appended == live.fed_occurrences &&
                      c.transactions_expired + miner.live_transactions() ==
                          live.fed_transactions,
                  "window counters disagree with the fed stream");
    Span check(tracer, "window.check", deltas);
    Span snapshot_span(tracer, "window.snapshot", deltas, check.slot());
    rpm::TransactionDatabase snapshot = miner.WindowSnapshot();
    snapshot_span.Stop();
    std::vector<rpm::RecurringPattern> want;
    if (options.trace) {
      CoreReplay replay =
          ReplayCore(tracer, deltas, check.slot(), snapshot, params, 0);
      report->Check(replay.consistent, "core replay is inconsistent");
      want = replay.patterns;
      if (first.stats.patterns_examined == 0) first = std::move(replay);
    } else {
      const Clock::time_point begin = Clock::now();
      want = rpm::MineRecurringPatterns(snapshot, params).patterns;
      remine_s.push_back(SecondsSince(begin));
    }
    check.Stop();
    rpm::SortPatternsCanonically(&want);
    report->Check(want == miner.patterns(),
                  "maintained set differs from a batch re-mine at delta " +
                      std::to_string(deltas));
    if (!options.trace && deltas % (check_every * setup_every_checks) == 0) {
      set_up();
    }
    cpus.Next();
    slice_begin = ReadCpu();
  }
  tracer->set_enabled(false);
  const CpuSlice phase = SliceBetween(phase_begin, ReadCpu());
  const rpm::WindowedCounters& end = miner.counters();
  const double n = static_cast<double>(deltas);
  const double delta_p50 = Median(apply_s);
  report->Add("proc.cpu_util", phase.process_cores, "cores");
  AddLatencyMetrics(apply_s, report);

  if (!options.trace) {
    report->Add("setup_s", Median(setups), "s", setups.size());
    report->Add("ops_per_s", n / Sum(apply_s), "1/s", apply_s.size());
    report->Add("window.tx_per_s", n * kDeltaTxns / Sum(apply_s), "1/s",
                apply_s.size());
    report->Add("window.remine_ms_p50", Median(remine_s) * 1e3, "ms",
                remine_s.size());
    report->Add("window.speedup_vs_remine", Median(remine_s) / delta_p50,
                "ratio", remine_s.size());
    return;
  }

  AddCoreLayerMetrics(*tracer, first, report);
  // A batch re-mine is the sequential prepare + clone + mine of a replay.
  double remine = 0.0;
  for (const char* span :
       {"core.prepare", "core.rp_tree.clone", "core.mine"}) {
    remine += Median(tracer->Durations(span));
  }
  report->Add("window.speedup_vs_remine", remine / delta_p50, "ratio");
  report->Add("window.subproblem_share", subproblem_sum / live_sum, "share",
              deltas);
  report->Add("window.affected_items_per_delta", affected_sum / n, "count",
              deltas);
  report->Add("window.diff_patterns_per_delta", diff_sum / n, "count", deltas);
  report->Add("window.compactions",
              static_cast<double>(end.compactions - start.compactions),
              "count");
  report->Add("window.nodes_retired",
              static_cast<double>(end.nodes_retired - start.nodes_retired),
              "count");
  report->Add("trace.overhead", Median(traced_s) / Median(untraced_s) - 1.0,
              "share", traced_s.size());
  AddAbsentLayerMetrics("window", report);
}

}  // namespace rpmbench
