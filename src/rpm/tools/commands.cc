#include "rpm/tools/commands.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>
#include <sstream>
#include <thread>

#include "rpm/analysis/export.h"
#include "rpm/analysis/pattern_report.h"
#include "rpm/analysis/pattern_stats.h"
#include "rpm/analysis/threshold_advisor.h"
#include "rpm/baselines/pf_growth.h"
#include "rpm/baselines/ppattern.h"
#include "rpm/common/civil_time.h"
#include "rpm/common/flags.h"
#include "rpm/engine/session.h"
#include "rpm/gen/paper_datasets.h"
#include "rpm/engine/snapshot_registry.h"
#include "rpm/serve/server.h"
#include "rpm/serve/service.h"
#include "rpm/timeseries/database_stats.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/tools/mining_flags.h"
#include "rpm/tools/serve_flags.h"
#include "rpm/tools/signal_cancel.h"
#include "rpm/verify/fault_injection.h"
#include "rpm/verify/harness.h"

namespace rpm::tools {

namespace {

using engine::DatasetSnapshot;
using engine::Query;
using engine::QueryResult;
using engine::QuerySession;

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 2;
}

/// Which dataset flags a subcommand takes (its kCommands row says).
enum class Input { kNone, kDataset, kCsv };

/// --input and --format: the dataset a subcommand reads.
struct InputFlags {
  std::string input;
  std::string format = "tspmf";

  /// Registers --input, and --format unless the subcommand reads csv only
  /// (`convert`). `this` must outlive parser.Parse().
  void Register(FlagParser* parser, Input kind) {
    parser->AddString("input", "", "event file path", &input);
    if (kind == Input::kCsv) {
      format = "csv";
    } else {
      parser->AddString("format", format, "input format: tspmf|spmf|csv",
                        &format);
    }
  }

  Result<std::shared_ptr<const DatasetSnapshot>> Load() const {
    return DatasetSnapshot::Load(input, format);
  }
};

/// What a subcommand runs with: its own argv (argv[0] is its name), the
/// two streams, and a flag parser titled from its kCommands row, with the
/// row's dataset flags already registered in `data`.
struct Invocation {
  int argc;
  const char* const* argv;
  std::ostream& out;
  std::ostream& err;
  FlagParser parser;
  Input input = Input::kNone;
  InputFlags data{};
  std::shared_ptr<const DatasetSnapshot> snapshot{};  ///< set by Parse()

  /// The one parse-or-usage step: parses argv, requires --input where the
  /// row reads a dataset, runs `check` (flag combinations), then loads the
  /// dataset. Returns 0 to go on, else the exit code: 1 after printing a
  /// usage error and the flag list once, 2 when the dataset fails to load.
  int Parse(const std::function<Status()>& check = nullptr) {
    Status s = parser.Parse(argc, argv);
    if (s.ok() && input != Input::kNone && data.input.empty()) {
      s = Status::InvalidArgument("--input is required");
    }
    if (s.ok() && check) s = check();
    if (!s.ok()) {
      err << s.ToString() << "\n" << parser.Help();
      return 1;
    }
    if (input == Input::kNone) return 0;
    Result<std::shared_ptr<const DatasetSnapshot>> loaded = data.Load();
    if (!loaded.ok()) return Fail(err, loaded.status());
    snapshot = std::move(*loaded);
    return 0;
  }
};

/// `output_format` is text, csv or json (`mine` checks it up front).
Status WriteResults(const std::vector<RecurringPattern>& patterns,
                    const ItemDictionary& dict,
                    const std::string& output_format,
                    const std::optional<int64_t>& epoch, std::ostream* out) {
  if (output_format == "text") {
    analysis::ReportOptions options;
    options.epoch_minutes = epoch;
    for (const std::string& line :
         analysis::FormatPatternReport(patterns, dict, options)) {
      *out << line << "\n";
    }
    return Status::OK();
  }
  analysis::ExportOptions options;
  options.epoch_minutes = epoch;
  if (output_format == "csv") {
    return analysis::WritePatternsCsv(patterns, dict, out, options);
  }
  return analysis::WritePatternsJson(patterns, dict, out, options);
}

/// The `mine` stderr summary (pinned by cli_test.cc): pattern count,
/// params, wall clock, and the worker/merge-kernel diagnostics.
void PrintMineSummary(const Query& query, const QueryResult& result,
                      std::ostream& err) {
  if (query.top_k > 0) {
    err << "top-k: " << result.patterns.size() << " patterns at minRec="
        << result.top_k_final_min_rec << " after " << result.top_k_rounds
        << " round(s)\n";
    return;
  }
  err << result.patterns.size() << " recurring patterns ("
      << query.params.ToString() << ") in " << result.stats.total_seconds
      << "s";
  if (result.stats.threads_used > 1) {
    err << " [" << result.stats.threads_used << " threads, mine "
        << result.stats.mine_seconds << "s wall / "
        << result.stats.mine_cpu_seconds << "s cpu]";
  }
  err << " [merge " << result.stats.merge_invocations << " calls / "
      << result.stats.runs_merged << " runs / "
      << result.stats.timestamps_merged << " ts, scratch peak "
      << result.stats.scratch_bytes_peak << " B / total "
      << result.stats.scratch_bytes_total << " B]";
  err << " [gate scan " << result.stats.gate_lists_scanned << " lists / "
      << result.stats.gate_gaps_scanned << " gaps / "
      << result.stats.support_pruned << " pruned]";
  if (result.tree_reused) err << " [tree reused]";
  if (result.backend == "windowed") {
    err << " [windowed " << result.windowed.deltas_applied << " deltas / "
        << result.windowed.timestamps_appended << " appended / "
        << result.windowed.timestamps_retired << " retired / "
        << result.windowed.nodes_retired << " nodes retired / "
        << result.windowed.compactions << " compactions]";
  }
  err << "\n";
}

/// The --queries=FILE path: N query lines against ONE snapshot and ONE
/// planner, emitted as a single JSON document. Each record embeds the
/// query's patterns exactly as `mine --output-format=json` would print
/// them (byte-identical — asserted by cli_test.cc), plus the planner
/// telemetry that shows tree builds being shared across queries.
int RunMultiQuery(QuerySession& session, const std::string& input,
                  const std::string& queries_path,
                  const std::optional<int64_t>& epoch,
                  const CancellationToken* cancel, std::ostream& out,
                  std::ostream& err) {
  std::ifstream file(queries_path);
  if (!file) {
    return Fail(err, Status::IOError("cannot open --queries file '" +
                                     queries_path + "'"));
  }
  std::vector<std::pair<size_t, std::string>> lines;  // (number, text)
  std::string raw;
  for (size_t number = 1; std::getline(file, raw); ++number) {
    const size_t first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos || raw[first] == '#') continue;
    lines.emplace_back(number, raw);
  }
  if (lines.empty()) {
    return Fail(err, Status::InvalidArgument("--queries file '" +
                                             queries_path +
                                             "' has no query lines"));
  }

  size_t failed_queries = 0;
  out << "{\n";
  out << "  \"input\": \"" << analysis::JsonEscape(input) << "\",\n";
  out << "  \"transactions\": " << session.snapshot().size() << ",\n";
  out << "  \"queries\": [\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string line_tag =
        "--queries line " + std::to_string(lines[i].first) + ": ";
    Result<ParsedQueryLine> parsed =
        ParseMiningQuery(lines[i].second, session.snapshot().size());
    if (!parsed.ok()) {
      return Fail(err, Status::InvalidArgument(
                           line_tag + parsed.status().message()));
    }
    parsed->query.cancel = cancel;
    Result<QueryResult> result = session.Run(parsed->query, parsed->backend,
                                             {.threads = parsed->threads});
    if (!result.ok()) {
      return Fail(err, Status::InvalidArgument(
                           line_tag + result.status().message()));
    }
    std::ostringstream patterns_json;
    if (Status s = WriteResults(result->patterns,
                                session.snapshot().dictionary(), "json",
                                epoch, &patterns_json);
        !s.ok()) {
      return Fail(err, s);
    }
    out << "    {\n";
    out << "      \"query\": \""
        << analysis::JsonEscape(parsed->query.ToString()) << "\",\n";
    out << "      \"backend\": \"" << result->backend << "\",\n";
    out << "      \"tree_reused\": "
        << (result->tree_reused ? "true" : "false") << ",\n";
    out << "      \"tree_builds\": " << result->session_tree_builds
        << ",\n";
    out << "      \"status\": \""
        << StatusCodeToString(result->status.code()) << "\",\n";
    out << "      \"truncated\": " << (result->truncated ? "true" : "false")
        << ",\n";
    out << "      \"patterns_found\": " << result->patterns.size() << ",\n";
    if (parsed->query.top_k > 0) {
      out << "      \"top_k_rounds\": " << result->top_k_rounds << ",\n";
      out << "      \"top_k_final_min_rec\": "
          << result->top_k_final_min_rec << ",\n";
    }
    out << "      \"plan_seconds\": " << result->plan_seconds << ",\n";
    out << "      \"execute_seconds\": " << result->execute_seconds
        << ",\n";
    out << "      \"total_seconds\": " << result->total_seconds << ",\n";
    out << "      \"patterns\": " << patterns_json.str();
    out << "    }" << (i + 1 < lines.size() ? "," : "") << "\n";
    err << "query " << (i + 1) << "/" << lines.size() << " ["
        << result->backend << "] " << parsed->query.ToString() << ": "
        << result->patterns.size() << " patterns, "
        << (result->tree_reused ? "tree reused" : "tree built") << "\n";
    if (!result->status.ok()) {
      ++failed_queries;
      err << line_tag << "query failed: " << result->status.ToString()
          << (result->truncated ? " (partial result emitted)" : "") << "\n";
    }
  }
  out << "  ],\n";
  out << "  \"tree_builds\": " << session.tree_builds() << "\n";
  out << "}\n";
  err << lines.size() << " queries against one snapshot, "
      << session.tree_builds() << " tree build(s)\n";
  if (failed_queries > 0) {
    err << failed_queries << " of " << lines.size()
        << " queries failed (see per-query \"status\" fields)\n";
    return 2;
  }
  return 0;
}

int CmdMine(Invocation& cmd) {
  FlagParser& parser = cmd.parser;
  MiningQueryFlags mining;
  ExecFlags exec;
  std::string queries, output_format, epoch;
  bool with_stats = false;
  mining.Register(&parser);
  exec.Register(&parser);
  parser.AddString("queries", "",
                   "file of query lines (mine flags + --backend/--threads "
                   "per line) run against one shared snapshot; emits one "
                   "JSON document",
                   &queries);
  parser.AddBool("stats", false,
                 "append coverage/concentration stats per pattern "
                 "(text output only)",
                 &with_stats);
  parser.AddString("output-format", "text", "text|csv|json",
                   &output_format);
  parser.AddString("epoch", "",
                   "render timestamps as dates relative to this "
                   "'YYYY-MM-DD[ HH:MM]'",
                   &epoch);
  if (int code = cmd.Parse([&]() -> Status {
        // A --queries session takes the query flags from each line and
        // always emits one JSON document, so it takes none of these.
        std::vector<std::string> per_query = mining.kNames;
        per_query.insert(per_query.end(),
                         {"backend", "threads", "stats", "output-format"});
        for (const std::string& name : per_query) {
          if (!queries.empty() && parser.seen(name)) {
            return Status::InvalidArgument(
                "--queries conflicts with --" + name +
                ": each query line carries its own query flags");
          }
        }
        if (output_format != "text" && output_format != "csv" &&
            output_format != "json") {
          return Status::InvalidArgument("unknown --output-format '" +
                                         output_format +
                                         "' (expected text, csv or json)");
        }
        if (with_stats && output_format != "text") {
          return Status::InvalidArgument(
              "--stats conflicts with --output-format=" + output_format +
              ": the per-pattern stats print as text only");
        }
        RPM_RETURN_NOT_OK(exec.Check());
        return queries.empty() ? mining.RequireMinPs() : Status::OK();
      })) {
    return code;
  }
  std::optional<int64_t> epoch_minutes;  // --epoch in minutes since 1970
  if (!epoch.empty()) {
    Result<CivilMinute> civil = ParseCivilMinute(epoch);
    if (!civil.ok()) return Fail(cmd.err, civil.status());
    epoch_minutes = MinutesFromCivil(*civil);
  }

  // First SIGINT/SIGTERM cancels the query (it stops at the next budget
  // checkpoint with its deterministic committed prefix and exits 2); a
  // second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);

  QuerySession session(cmd.snapshot);
  if (!queries.empty()) {
    return RunMultiQuery(session, cmd.data.input, queries, epoch_minutes,
                         &cancel_token, cmd.out, cmd.err);
  }

  Result<ParsedQueryLine> query =
      ResolveQuery(mining, exec, session.snapshot().size());
  if (!query.ok()) return Fail(cmd.err, query.status());
  query->query.cancel = &cancel_token;
  Result<QueryResult> result =
      session.Run(query->query, query->backend, {.threads = query->threads});
  if (!result.ok()) return Fail(cmd.err, result.status());
  PrintMineSummary(query->query, *result, cmd.err);
  if (!result->status.ok()) {
    // Governed failure: still print whatever the budget committed (the
    // deterministic prefix), but exit non-zero so scripts notice.
    cmd.err << "query stopped early: " << result->status.ToString()
            << (result->truncated ? " (partial result below)" : "") << "\n";
  } else if (result->truncated) {
    // The soft max-patterns cap completed with an intentional cut: exit 0,
    // but say so — the count above is a committed prefix, not the total.
    cmd.err << "result truncated by --max-patterns (deterministic "
               "committed prefix)\n";
  }

  const TransactionDatabase& db = session.snapshot().db();
  if (with_stats && !db.empty()) {
    for (const RecurringPattern& p : result->patterns) {
      cmd.out << analysis::FormatItemset(p.items, db.dictionary()) << "  "
              << analysis::FormatPatternStats(analysis::ComputePatternStats(
                     p, db, query->query.params))
              << "\n";
    }
    return result->status.ok() ? 0 : 2;
  }
  if (Status s = WriteResults(result->patterns, db.dictionary(),
                              output_format, epoch_minutes, &cmd.out);
      !s.ok()) {
    return Fail(cmd.err, s);
  }
  return result->status.ok() ? 0 : 2;
}

int CmdPfMine(Invocation& cmd) {
  uint64_t min_sup = 1;
  int64_t max_per = 1;
  cmd.parser.AddUint64("min-sup", 1, "minimum support", &min_sup);
  cmd.parser.AddInt64("max-per", 1, "maximum periodicity", &max_per);
  if (int code = cmd.Parse()) return code;
  const TransactionDatabase& db = cmd.snapshot->db();
  baselines::PfParams params;
  params.min_sup = min_sup;
  params.max_per = max_per;
  if (Status s = params.Validate(); !s.ok()) return Fail(cmd.err, s);
  auto result = baselines::MinePeriodicFrequentPatterns(db, params);
  cmd.err << result.patterns.size() << " periodic-frequent patterns in "
          << result.seconds << "s\n";
  for (const auto& p : result.patterns) {
    cmd.out << analysis::FormatItemset(p.items, db.dictionary())
            << " sup=" << p.support << " per=" << p.periodicity << "\n";
  }
  return 0;
}

int CmdPpMine(Invocation& cmd) {
  uint64_t min_sup = 1, window = 1, max_patterns = 0;
  int64_t per = 1;
  cmd.parser.AddInt64("per", 1, "known period", &per);
  cmd.parser.AddUint64("window", 1, "Ma-Hellerstein window w", &window);
  cmd.parser.AddUint64("min-sup", 1, "min on-period inter-arrival times",
                       &min_sup);
  cmd.parser.AddUint64("max-patterns", 0,
                       "stop after this many found (0 = unlimited)",
                       &max_patterns);
  if (int code = cmd.Parse()) return code;
  const TransactionDatabase& db = cmd.snapshot->db();
  baselines::PPatternParams params;
  params.period = per;
  params.window = static_cast<Timestamp>(window);
  params.min_sup = min_sup;
  if (Status s = params.Validate(); !s.ok()) return Fail(cmd.err, s);
  baselines::PPatternOptions options;
  options.max_total_patterns = max_patterns;
  auto result = baselines::MinePPatterns(db, params, options);
  cmd.err << result.total_found << " p-patterns"
          << (result.truncated ? " (truncated)" : "") << " in "
          << result.seconds << "s\n";
  for (const auto& p : result.patterns) {
    cmd.out << analysis::FormatItemset(p.items, db.dictionary())
            << " sup=" << p.support << " periodic=" << p.periodic_count
            << "\n";
  }
  return 0;
}

int CmdAdvise(Invocation& cmd) {
  uint64_t min_item_support = 10;
  cmd.parser.AddUint64("min-item-support", 10,
                       "ignore items below this support", &min_item_support);
  if (int code = cmd.Parse()) return code;
  analysis::AdvisorOptions options;
  options.min_item_support = min_item_support;
  analysis::ThresholdAdvice advice =
      analysis::AdviseThresholds(cmd.snapshot->db(), options);
  cmd.out << "suggested: --per " << advice.suggested_period << " --min-ps "
          << advice.suggested_min_ps << " --min-rec "
          << advice.suggested_min_rec << "\n";
  cmd.out << "rationale: " << advice.rationale << "\n";
  return 0;
}

int CmdStats(Invocation& cmd) {
  if (int code = cmd.Parse()) return code;
  cmd.out << ComputeStats(cmd.snapshot->db()).ToString() << "\n";
  return 0;
}

int CmdCompare(Invocation& cmd) {
  // Shared threshold flags, with compare's dataset-scale defaults (daily
  // period, 2% minPS) presented in the flag list and used when unset.
  MiningQueryFlags mining;
  mining.per = 1440;
  mining.min_ps_pct = 2.0;
  double min_sup_pct = 0.1;
  uint64_t max_pp = 500000;
  mining.Register(&cmd.parser);
  cmd.parser.AddDouble("min-sup-pct", 0.1,
                       "minSup for PF and p-patterns, percent of |TDB|",
                       &min_sup_pct);
  cmd.parser.AddUint64("max-pp", 500000,
                       "p-pattern enumeration cap (0 = unlimited)", &max_pp);
  if (int code = cmd.Parse()) return code;
  const TransactionDatabase& db = cmd.snapshot->db();

  const uint64_t min_sup = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(
             min_sup_pct / 100.0 * static_cast<double>(db.size()))));

  baselines::PfParams pf;
  pf.min_sup = min_sup;
  pf.max_per = mining.per;
  auto pf_result = baselines::MinePeriodicFrequentPatterns(db, pf);
  size_t pf_len = 0;
  for (const auto& p : pf_result.patterns) {
    pf_len = std::max(pf_len, p.items.size());
  }

  Result<Query> query = mining.ToQuery(db.size());
  if (!query.ok()) return Fail(cmd.err, query.status());
  QuerySession session(cmd.snapshot);
  Result<QueryResult> rp_result = session.Run(*query);
  if (!rp_result.ok()) return Fail(cmd.err, rp_result.status());

  baselines::PPatternParams pp;
  pp.period = mining.per;
  pp.min_sup = min_sup;
  baselines::PPatternOptions pp_options;
  pp_options.max_stored_patterns = 1;
  pp_options.max_total_patterns = max_pp;
  auto pp_result = baselines::MinePPatterns(db, pp, pp_options);

  cmd.out << "model                 patterns    max_len  seconds\n";
  char line[128];
  std::snprintf(line, sizeof(line), "%-20s %10zu %8zu %8.2f\n",
                "pf-patterns", pf_result.patterns.size(), pf_len,
                pf_result.seconds);
  cmd.out << line;
  std::snprintf(line, sizeof(line), "%-20s %10zu %8zu %8.2f\n",
                "recurring-patterns", rp_result->patterns.size(),
                MaxPatternLength(rp_result->patterns),
                rp_result->stats.total_seconds);
  cmd.out << line;
  std::snprintf(line, sizeof(line), "%-20s %s%9zu %8zu %8.2f\n",
                "p-patterns", pp_result.truncated ? ">" : " ",
                pp_result.total_found, pp_result.max_length,
                pp_result.seconds);
  cmd.out << line;
  return 0;
}

int CmdGenerate(Invocation& cmd) {
  std::string dataset, output;
  double scale = 1.0;
  uint64_t seed = 42;
  cmd.parser.AddString("dataset", "twitter", "quest|shop14|twitter",
                       &dataset);
  cmd.parser.AddString("output", "", "output path (tspmf); empty = stdout",
                       &output);
  cmd.parser.AddDouble("scale", 1.0, "fraction of the paper's size (0,1]",
                       &scale);
  cmd.parser.AddUint64("seed", 42, "generator seed", &seed);
  if (int code = cmd.Parse([&] {
        if (scale <= 0.0 || scale > 1.0) {
          return Status::InvalidArgument("--scale must be in (0, 1]");
        }
        if (dataset != "quest" && dataset != "shop14" &&
            dataset != "twitter") {
          return Status::InvalidArgument("unknown --dataset '" + dataset +
                                         "'");
        }
        return Status::OK();
      })) {
    return code;
  }
  TransactionDatabase db = dataset == "quest"
                               ? gen::MakeT10I4D100K(scale, seed)
                           : dataset == "shop14"
                               ? gen::MakeShop14(scale, seed).db
                               : gen::MakeTwitter(scale, seed).db;
  cmd.err << "generated: " << ComputeStats(db).ToString() << "\n";
  Status write = output.empty() ? WriteTimestampedSpmf(db, &cmd.out)
                                : WriteTimestampedSpmfFile(db, output);
  return write.ok() ? 0 : Fail(cmd.err, write);
}

int CmdConvert(Invocation& cmd) {
  std::string output;
  cmd.parser.AddString("output", "", "output path; empty = stdout", &output);
  if (int code = cmd.Parse()) return code;
  const TransactionDatabase& db = cmd.snapshot->db();
  Status write = output.empty() ? WriteTimestampedSpmf(db, &cmd.out)
                                : WriteTimestampedSpmfFile(db, output);
  if (!write.ok()) return Fail(cmd.err, write);
  cmd.err << "converted " << db.size() << " transactions\n";
  return 0;
}

int CmdVerify(Invocation& cmd) {
  FlagParser& parser = cmd.parser;
  uint64_t cases = 200, seed = 7, threads = 4, max_failures = 5;
  uint64_t faults = 0, fault_ppm = 20000;
  bool no_oracle = false, no_parallel = false;
  bool no_engine = false, no_windowed = false, fixed_params = false;
  MiningQueryFlags mining;
  parser.AddUint64("cases", 200, "number of generated cases", &cases);
  parser.AddUint64("seed", 7, "case-stream seed (reproducible)", &seed);
  parser.AddUint64("faults", 0,
                   "run the seeded fault-injection campaign instead: N "
                   "trials of injected allocation/IO/thread/clock faults "
                   "(DESIGN.md §7.4)",
                   &faults);
  parser.AddUint64("fault-ppm", 20000,
                   "per-hit fault fire probability, in parts per million "
                   "(only with --faults)",
                   &fault_ppm);
  parser.AddUint64("threads", 4, "worker threads for the parallel check",
                   &threads);
  parser.AddUint64("max-failures", 5,
                   "stop after this many divergent cases", &max_failures);
  parser.AddBool("no-oracle", false, "skip the brute-force oracle check",
                 &no_oracle);
  parser.AddBool("no-parallel", false,
                 "skip the sequential-vs-parallel check", &no_parallel);
  parser.AddBool("no-engine", false,
                 "skip the query-engine purity/reuse check", &no_engine);
  parser.AddBool("no-windowed", false,
                 "skip the windowed-vs-batch RP-list and miner checks",
                 &no_windowed);
  parser.AddBool("fixed-params", false,
                 "mine every generated database at the --per/--min-ps/"
                 "--min-rec/--tolerance flags instead of the case's own "
                 "parameters",
                 &fixed_params);
  mining.Register(&parser);
  if (int code = cmd.Parse([&]() -> Status {
        if (faults == 0 && parser.seen("fault-ppm")) {
          return Status::InvalidArgument("--fault-ppm needs --faults");
        }
        for (const std::string name :
             {"cases", "no-oracle", "no-parallel", "no-engine", "no-windowed",
              "fixed-params"}) {
          if (faults > 0 && parser.seen(name)) {
            return Status::InvalidArgument(
                "--faults conflicts with --" + name +
                ": the fault campaign runs no generated cases");
          }
        }
        if (fault_ppm > 1000000) {
          return Status::InvalidArgument("--fault-ppm must be <= 1000000");
        }
        if (cases == 0) return Status::InvalidArgument("--cases must be >= 1");
        for (const std::string& name : mining.kNames) {
          if (!parser.seen(name)) continue;
          if (!fixed_params) {
            return Status::InvalidArgument("--" + name +
                                           " needs --fixed-params");
          }
          if (name != "per" && name != "min-ps" && name != "min-rec" &&
              name != "tolerance") {
            return Status::InvalidArgument(
                "--fixed-params conflicts with --" + name +
                ": it pins --per/--min-ps/--min-rec/--tolerance only");
          }
        }
        return Status::OK();
      })) {
    return code;
  }
  // First SIGINT/SIGTERM stops after the current case/trial and reports
  // what completed; a second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);

  if (faults > 0) {
    FaultCampaignOptions campaign;
    campaign.trials = faults;
    campaign.seed = seed;
    campaign.probability_ppm = static_cast<uint32_t>(fault_ppm);
    campaign.parallel_threads = threads == 0 ? 4 : threads;
    campaign.max_failures = max_failures == 0 ? 1 : max_failures;
    campaign.cancel = &cancel_token;
    FaultCampaignReport report = RunFaultCampaign(campaign);
    cmd.out << report.ToString() << "\n";
    return report.ok() && !report.cancelled ? 0 : 2;
  }
  verify::VerifyOptions options;
  options.cases = cases;
  options.seed = seed;
  options.cancel = &cancel_token;
  options.max_failures = max_failures == 0 ? 1 : max_failures;
  options.cross_check.check_oracle = !no_oracle;
  options.cross_check.check_parallel = !no_parallel;
  options.cross_check.check_engine = !no_engine;
  options.cross_check.check_windowed = !no_windowed;
  options.cross_check.parallel_threads = threads;
  if (fixed_params) {
    // Same resolution path as `mine` (db size is irrelevant without pct).
    Result<Query> query = mining.ToQuery(/*db_size=*/0);
    if (!query.ok()) return Fail(cmd.err, query.status());
    options.fixed_params = query->params;
  }
  verify::VerifyReport report = verify::RunVerification(options);
  cmd.out << verify::FormatReport(report, options);
  return report.ok() && !report.cancelled ? 0 : 2;
}

/// `rpminer serve`: long-lived query server over line-delimited JSON on
/// loopback TCP. Datasets are the positional args as name=path[:format];
/// more can be hot-swapped in over the wire ({"op":"swap"}). Runs until
/// SIGINT/SIGTERM, then drains: stop accepting, cancel in-flight queries,
/// flush responses, force-close at --drain-deadline-ms.
int CmdServe(Invocation& cmd) {
  ServeFlags flags;
  flags.Register(&cmd.parser);
  if (int code = cmd.Parse()) return code;
  Result<serve::QueryService::Options> service_options =
      flags.ToServiceOptions();
  if (!service_options.ok()) return Fail(cmd.err, service_options.status());
  Result<serve::Server::Options> server_options = flags.ToServerOptions();
  if (!server_options.ok()) return Fail(cmd.err, server_options.status());

  serve::TenantRegistry tenants;
  if (!flags.config.empty()) {
    std::ifstream config(flags.config);
    if (!config) {
      return Fail(cmd.err, Status::IOError("cannot open --config file '" +
                                           flags.config + "'"));
    }
    if (Status s = tenants.LoadConfig(config); !s.ok()) {
      return Fail(cmd.err, s);
    }
  }

  // Positional datasets: name=path or name=path:format.
  engine::SnapshotRegistry registry;
  for (const std::string& spec : cmd.parser.positional()) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Fail(cmd.err, Status::InvalidArgument(
                               "dataset spec '" + spec +
                               "' is not name=path[:format]"));
    }
    const std::string name = spec.substr(0, eq);
    std::string path = spec.substr(eq + 1);
    std::string format = "tspmf";
    const size_t colon = path.rfind(':');
    if (colon != std::string::npos && colon > 0) {
      const std::string suffix = path.substr(colon + 1);
      if (suffix == "tspmf" || suffix == "spmf" || suffix == "csv") {
        format = suffix;
        path.resize(colon);
      }
    }
    Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
        DatasetSnapshot::Load(path, format);
    if (!snapshot.ok()) return Fail(cmd.err, snapshot.status());
    if (Status s = registry.Register(name, std::move(*snapshot)); !s.ok()) {
      return Fail(cmd.err, s);
    }
    cmd.err << "dataset " << name << ": " << path << " (" << format << ")\n";
  }

  serve::QueryService service(&registry, std::move(tenants),
                              *service_options);
  serve::Server server(&service, *server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(cmd.err, s);

  // First SIGINT/SIGTERM begins the drain; a second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);
  cmd.err << "rpminer serve listening on 127.0.0.1:" << server.port()
          << "\n";
  cmd.out.flush();
  cmd.err.flush();
  while (!cancel_token.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  cmd.err << "drain: stopping accept loop, cancelling in-flight queries\n";
  const size_t forced = server.Drain();
  cmd.err << "drain: complete (" << forced << " session(s) force-closed)\n";
  return 0;
}

/// One row per subcommand: RpminerUsage() renders this table and
/// RunRpminer() dispatches from it, so the two cannot drift apart.
struct Command {
  const char* name;
  const char* summary;
  int (*run)(Invocation& cmd);
  Input input;
};

using enum Input;
constexpr Command kCommands[] = {
    {"mine",
     "discover recurring patterns (RP-growth; --queries=FILE runs many "
     "queries on one snapshot)",
     CmdMine, kDataset},
    {"pf-mine", "periodic-frequent baseline (PF-growth++)", CmdPfMine,
     kDataset},
    {"pp-mine", "p-pattern baseline (periodic-first)", CmdPpMine, kDataset},
    {"stats", "dataset shape summary", CmdStats, kDataset},
    {"advise", "suggest per/minPS/minRec starting points", CmdAdvise,
     kDataset},
    {"compare", "PF vs recurring vs p-patterns on one input", CmdCompare,
     kDataset},
    {"generate", "synthesize quest|shop14|twitter dataset", CmdGenerate,
     kNone},
    {"convert", "event CSV -> timestamped SPMF", CmdConvert, kCsv},
    {"verify", "differential correctness harness (randomized cross-checks)",
     CmdVerify, kNone},
    {"serve",
     "long-lived query server (line-delimited JSON over loopback TCP; "
     "name=path datasets)",
     CmdServe, kNone},
};

}  // namespace

std::string RpminerUsage() {
  std::string usage = "usage: rpminer <command> [flags]\ncommands:\n";
  for (const Command& c : kCommands) {
    usage += "  " + std::string(c.name).append(10 - std::strlen(c.name), ' ') +
             c.summary + "\n";
  }
  return usage +
         "run 'rpminer <command> --help' is not supported; invalid flags "
         "print the command's flag list\n";
}

int RunRpminer(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  if (argc < 2) {
    err << RpminerUsage();
    return 1;
  }
  const std::string name = argv[1];
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    // Shift argv so the subcommand sees its own flags as argv[1..].
    Invocation cmd{argc - 1, argv + 1, out, err,
                   FlagParser("rpminer " + name, command.summary),
                   command.input};
    if (command.input != kNone) cmd.data.Register(&cmd.parser, command.input);
    return command.run(cmd);
  }
  err << "unknown command '" << name << "'\n" << RpminerUsage();
  return 1;
}

}  // namespace rpm::tools
