// Helpers shared by the workloads: the traced core replay and the
// per-layer metrics every traced run reports.

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "rpm/analysis/export.h"
#include "rpm/core/rp_list.h"
#include "rpm/tools/commands.h"
#include "workloads.h"

namespace rpmbench {

size_t LoadThreads() {
  const size_t hardware = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hardware));
}

int RunCli(const std::vector<std::string>& args, std::string* out,
           std::string* err) {
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out_stream, err_stream;
  const int code = rpm::tools::RunRpminer(static_cast<int>(argv.size()),
                                          argv.data(), out_stream, err_stream);
  *out = out_stream.str();
  *err = err_stream.str();
  return code;
}

namespace {

bool SameInvariantCounters(const rpm::RpGrowthStats& a,
                           const rpm::RpGrowthStats& b) {
  return a.patterns_emitted == b.patterns_emitted &&
         a.merge_invocations == b.merge_invocations &&
         a.runs_merged == b.runs_merged &&
         a.timestamps_merged == b.timestamps_merged &&
         a.gate_gaps_scanned == b.gate_gaps_scanned;
}

}  // namespace

CoreReplay ReplayCore(Tracer* tracer, uint64_t id, int64_t parent,
                      const rpm::TransactionDatabase& db,
                      const rpm::RpParams& params, size_t max_length) {
  CoreReplay out;
  Span root(tracer, "core.replay", id, parent);
  parent = root.slot();

  Span prepare_span(tracer, "core.prepare", id, parent);
  rpm::PreparedMining prepared = rpm::PrepareMining(db, params);
  prepare_span.Stop();
  out.tree_nodes = prepared.initial_tree_nodes;

  rpm::RpGrowthOptions options;
  options.max_pattern_length = max_length;
  auto mine = [&](const char* name, size_t threads) {
    Span clone_span(tracer, "core.rp_tree.clone", id, parent);
    rpm::TsPrefixTree tree = prepared.tree.Clone();
    clone_span.Stop();
    options.num_threads = threads;
    Span mine_span(tracer, name, id, parent);
    rpm::RpGrowthResult result =
        rpm::MineFromPrepared(prepared, std::move(tree), params, options);
    mine_span.Stop();
    return result;
  };
  rpm::RpGrowthResult seq = mine("core.mine", 1);
  rpm::RpGrowthResult par = mine("core.mine_par", LoadThreads());
  out.stats = seq.stats;
  out.par_mine_cpu_util =
      par.stats.mine_seconds > 0.0
          ? par.stats.mine_cpu_seconds / par.stats.mine_seconds
          : 0.0;
  out.consistent = par.patterns == seq.patterns &&
                        SameInvariantCounters(par.stats, seq.stats);

  {
    Span span(tracer, "core.rp_list", id, parent);
    rpm::RpList list = rpm::BuildRpList(db, params);
    span.Stop();
    out.consistent =
        out.consistent &&
        list.num_candidates() == prepared.items_by_rank.size();
  }
  for (size_t threads : {size_t{1}, LoadThreads()}) {
    Span span(tracer,
              threads == 1 ? "core.rp_tree.build" : "core.rp_tree.build_par",
              id, parent);
    rpm::TsPrefixTree tree =
        rpm::BuildRankedTree(db, prepared.items_by_rank, nullptr, threads);
    span.Stop();
    out.consistent =
        out.consistent && tree.NodeCount() == prepared.initial_tree_nodes;
  }

  Span export_span(tracer, "analysis.export", id, parent);
  std::ostringstream json;
  rpm::Status status =
      rpm::analysis::WritePatternsJson(seq.patterns, db.dictionary(), &json);
  out.patterns_json = status.ok() ? json.str() : std::string();
  export_span.Stop();
  out.patterns = std::move(seq.patterns);
  return out;
}

void AddLatencyMetrics(const std::vector<double>& seconds, Report* report) {
  report->Add("op_ms_p50", Median(seconds) * 1e3, "ms", seconds.size());
  report->Add("op_ms_tail", Quantile(seconds, 0.99) * 1e3, "ms",
              seconds.size());
}

void AddSpanP50(const Tracer& tracer, const char* span,
                const std::string& metric, Report* report) {
  const std::vector<double> d = tracer.Durations(span);
  report->Add(metric, Median(d) * 1e3, "ms", d.size());
}

void AddCoreLayerMetrics(const Tracer& tracer, const CoreReplay& first,
                         Report* report) {
  AddSpanP50(tracer, "timeseries.load", "timeseries.load_ms", report);
  AddSpanP50(tracer, "core.prepare", "core.prepare_ms", report);
  AddSpanP50(tracer, "core.rp_list", "core.rp_list_ms", report);
  AddSpanP50(tracer, "core.rp_tree.build", "core.rp_tree.build_ms", report);
  AddSpanP50(tracer, "core.rp_tree.build_par", "core.rp_tree.build_par_ms",
             report);
  AddSpanP50(tracer, "core.rp_tree.clone", "core.rp_tree.clone_ms", report);
  AddSpanP50(tracer, "core.mine", "core.mine_ms", report);
  AddSpanP50(tracer, "core.mine_par", "core.mine_par_ms", report);
  AddSpanP50(tracer, "analysis.export", "analysis.export_ms", report);

  const rpm::RpGrowthStats& s = first.stats;
  report->Add("core.rp_tree.nodes", static_cast<double>(first.tree_nodes),
              "count");
  report->Add("core.merge_calls", static_cast<double>(s.merge_invocations),
              "count");
  report->Add("core.timestamps_merged",
              static_cast<double>(s.timestamps_merged), "count");
  report->Add("core.gate_gaps", static_cast<double>(s.gate_gaps_scanned),
              "count");
  report->Add("core.yield",
              s.patterns_examined > 0
                  ? static_cast<double>(s.patterns_emitted) /
                        static_cast<double>(s.patterns_examined)
                  : 0.0,
              "share");
  report->Add("core.mine_cpu_util", first.par_mine_cpu_util, "cores");
  report->Add("analysis.export_mb",
              static_cast<double>(first.patterns_json.size()) / 1e6, "MB");
}

void AddAbsentLayerMetrics(const std::string& own_family, Report* report) {
  struct Entry {
    const char* family;
    const char* name;
    const char* unit;
  };
  static const Entry kLayerMetrics[] = {
      {"mine", "tools.cli_self_share", "share"},
      {"serve", "serve.cache.hit_share", "share"},
      {"serve", "serve.cache.coalesced", "count"},
      {"serve", "serve.cache.evictions", "count"},
      {"serve", "serve.admission.queued_share", "share"},
      {"serve", "serve.admission.rejected", "count"},
      {"serve", "engine.tree_builds", "count"},
      {"serve", "engine.tree_reuse_share", "share"},
      {"window", "window.subproblem_share", "share"},
      {"window", "window.affected_items_per_delta", "count"},
      {"window", "window.diff_patterns_per_delta", "count"},
      {"window", "window.compactions", "count"},
      {"window", "window.nodes_retired", "count"},
      {"window", "window.speedup_vs_remine", "ratio"},
  };
  for (const Entry& e : kLayerMetrics) {
    if (own_family != e.family) report->Add(e.name, 0.0, e.unit);
  }
}

}  // namespace rpmbench
