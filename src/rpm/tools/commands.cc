#include "rpm/tools/commands.h"

#include <chrono>
#include <cmath>
#include <fstream>
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

using engine::BackendKind;
using engine::DatasetSnapshot;
using engine::ExecOptions;
using engine::Query;
using engine::QueryResult;
using engine::QuerySession;

/// Every subcommand loads through the snapshot layer; `Snapshot` is just
/// the error-message plumbing around DatasetSnapshot::Load.
Result<std::shared_ptr<const DatasetSnapshot>> LoadSnapshot(
    const std::string& path, const std::string& format) {
  return DatasetSnapshot::Load(path, format);
}

/// Resolves --epoch into minutes since 1970 (empty -> no epoch).
Result<std::optional<int64_t>> ResolveEpoch(const std::string& epoch) {
  if (epoch.empty()) return std::optional<int64_t>{};
  RPM_ASSIGN_OR_RETURN(CivilMinute cm, ParseCivilMinute(epoch));
  return std::optional<int64_t>{MinutesFromCivil(cm)};
}

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
  if (output_format == "json") {
    return analysis::WritePatternsJson(patterns, dict, out, options);
  }
  return Status::InvalidArgument("unknown --output-format '" +
                                 output_format +
                                 "' (expected text, csv or json)");
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 2;
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
      << result.stats.gate_gaps_scanned << " gaps]";
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
  struct QueryLine {
    size_t number = 0;
    std::string text;
  };
  std::vector<QueryLine> lines;
  std::string raw;
  for (size_t number = 1; std::getline(file, raw); ++number) {
    const size_t first = raw.find_first_not_of(" \t\r");
    if (first == std::string::npos || raw[first] == '#') continue;
    lines.push_back({number, raw});
  }
  if (lines.empty()) {
    return Fail(err, Status::InvalidArgument("--queries file '" +
                                             queries_path +
                                             "' has no query lines"));
  }

  analysis::ExportOptions export_options;
  export_options.epoch_minutes = epoch;
  size_t failed_queries = 0;
  out << "{\n";
  out << "  \"input\": \"" << analysis::JsonEscape(input) << "\",\n";
  out << "  \"transactions\": " << session.snapshot().size() << ",\n";
  out << "  \"queries\": [\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string line_tag =
        "--queries line " + std::to_string(lines[i].number) + ": ";
    Result<ParsedQueryLine> parsed =
        ParseMiningQuery(lines[i].text, session.snapshot().size());
    if (!parsed.ok()) {
      return Fail(err, Status::InvalidArgument(
                           line_tag + parsed.status().message()));
    }
    ExecOptions exec;
    exec.threads = parsed->threads;
    parsed->query.cancel = cancel;
    Result<QueryResult> result =
        session.Run(parsed->query, parsed->backend, exec);
    if (!result.ok()) {
      return Fail(err, Status::InvalidArgument(
                           line_tag + result.status().message()));
    }
    std::ostringstream patterns_json;
    if (Status s = analysis::WritePatternsJson(
            result->patterns, session.snapshot().dictionary(),
            &patterns_json, export_options);
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

int CmdMine(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  FlagParser parser("rpminer mine", "discover recurring patterns");
  std::string input, format, output_format, epoch, backend_name, queries;
  MiningQueryFlags mining;
  uint64_t threads = 1;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  mining.Register(&parser);
  parser.AddUint64("threads", 1,
                   "mining worker threads (0 = one per hardware thread, "
                   "1 = sequential); results are identical either way",
                   &threads);
  parser.AddString("backend", "",
                   "executor: sequential|parallel|windowed "
                   "(default: sequential, parallel when --threads != 1)",
                   &backend_name);
  parser.AddString("queries", "",
                   "file of query lines (mine flags + --backend/--threads "
                   "per line) run against one shared snapshot; emits one "
                   "JSON document",
                   &queries);
  bool with_stats = false;
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
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }

  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  Result<std::optional<int64_t>> epoch_minutes = ResolveEpoch(epoch);
  if (!epoch_minutes.ok()) return Fail(err, epoch_minutes.status());

  // First SIGINT/SIGTERM cancels the query (it stops at the next budget
  // checkpoint with its deterministic committed prefix and exits 2); a
  // second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);

  QuerySession session(*snapshot);
  if (!queries.empty()) {
    return RunMultiQuery(session, input, queries, *epoch_minutes,
                         &cancel_token, out, err);
  }

  Result<Query> query = mining.ToQuery(session.snapshot().size());
  if (!query.ok()) return Fail(err, query.status());
  query->cancel = &cancel_token;

  BackendKind backend =
      threads == 1 ? BackendKind::kSequential : BackendKind::kParallel;
  if (!backend_name.empty()) {
    Result<BackendKind> parsed = engine::ParseBackend(backend_name);
    if (!parsed.ok()) return Fail(err, parsed.status());
    backend = *parsed;
  }
  ExecOptions exec;
  exec.threads = threads;
  Result<QueryResult> result = session.Run(*query, backend, exec);
  if (!result.ok()) return Fail(err, result.status());
  PrintMineSummary(*query, *result, err);
  if (!result->status.ok()) {
    // Governed failure: still print whatever the budget committed (the
    // deterministic prefix), but exit non-zero so scripts notice.
    err << "query stopped early: " << result->status.ToString()
        << (result->truncated ? " (partial result below)" : "") << "\n";
  } else if (result->truncated) {
    // The soft max-patterns cap completed with an intentional cut: exit 0,
    // but say so — the count above is a committed prefix, not the total.
    err << "result truncated by --max-patterns (deterministic committed "
           "prefix)\n";
  }

  const TransactionDatabase& db = session.snapshot().db();
  if (with_stats && output_format == "text" && !db.empty()) {
    for (const RecurringPattern& p : result->patterns) {
      out << analysis::FormatItemset(p.items, db.dictionary()) << "  "
          << analysis::FormatPatternStats(
                 analysis::ComputePatternStats(p, db, query->params))
          << "\n";
    }
    return result->status.ok() ? 0 : 2;
  }
  if (Status s = WriteResults(result->patterns, db.dictionary(),
                              output_format, *epoch_minutes, &out);
      !s.ok()) {
    return Fail(err, s);
  }
  return result->status.ok() ? 0 : 2;
}

int CmdPfMine(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  FlagParser parser("rpminer pf-mine",
                    "periodic-frequent baseline (PF-growth++)");
  std::string input, format;
  uint64_t min_sup = 1;
  int64_t max_per = 1;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  parser.AddUint64("min-sup", 1, "minimum support", &min_sup);
  parser.AddInt64("max-per", 1, "maximum periodicity", &max_per);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  const TransactionDatabase& db = (*snapshot)->db();
  baselines::PfParams params;
  params.min_sup = min_sup;
  params.max_per = max_per;
  if (Status s = params.Validate(); !s.ok()) return Fail(err, s);
  auto result = baselines::MinePeriodicFrequentPatterns(db, params);
  err << result.patterns.size() << " periodic-frequent patterns in "
      << result.seconds << "s\n";
  for (const auto& p : result.patterns) {
    out << analysis::FormatItemset(p.items, db.dictionary())
        << " sup=" << p.support << " per=" << p.periodicity << "\n";
  }
  return 0;
}

int CmdPpMine(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  FlagParser parser("rpminer pp-mine",
                    "p-pattern baseline (periodic-first)");
  std::string input, format;
  uint64_t min_sup = 1, window = 1, max_patterns = 0;
  int64_t per = 1;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  parser.AddInt64("per", 1, "known period", &per);
  parser.AddUint64("window", 1, "Ma-Hellerstein window w", &window);
  parser.AddUint64("min-sup", 1, "min on-period inter-arrival times",
                   &min_sup);
  parser.AddUint64("max-patterns", 0,
                   "stop after this many found (0 = unlimited)",
                   &max_patterns);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  const TransactionDatabase& db = (*snapshot)->db();
  baselines::PPatternParams params;
  params.period = per;
  params.window = static_cast<Timestamp>(window);
  params.min_sup = min_sup;
  if (Status s = params.Validate(); !s.ok()) return Fail(err, s);
  baselines::PPatternOptions options;
  options.max_total_patterns = max_patterns;
  auto result = baselines::MinePPatterns(db, params, options);
  err << result.total_found << " p-patterns"
      << (result.truncated ? " (truncated)" : "") << " in "
      << result.seconds << "s\n";
  for (const auto& p : result.patterns) {
    out << analysis::FormatItemset(p.items, db.dictionary())
        << " sup=" << p.support << " periodic=" << p.periodic_count << "\n";
  }
  return 0;
}

int CmdAdvise(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  FlagParser parser("rpminer advise",
                    "suggest per/minPS/minRec starting points");
  std::string input, format;
  uint64_t min_item_support = 10;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  parser.AddUint64("min-item-support", 10,
                   "ignore items below this support", &min_item_support);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  analysis::AdvisorOptions options;
  options.min_item_support = min_item_support;
  analysis::ThresholdAdvice advice =
      analysis::AdviseThresholds((*snapshot)->db(), options);
  out << "suggested: --per " << advice.suggested_period << " --min-ps "
      << advice.suggested_min_ps << " --min-rec "
      << advice.suggested_min_rec << "\n";
  out << "rationale: " << advice.rationale << "\n";
  return 0;
}

int CmdStats(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  FlagParser parser("rpminer stats", "dataset shape summary");
  std::string input, format;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  out << ComputeStats((*snapshot)->db()).ToString() << "\n";
  return 0;
}

int CmdCompare(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  FlagParser parser("rpminer compare",
                    "run PF / recurring / p-pattern models side by side "
                    "(Table 8 style)");
  std::string input, format;
  // Shared threshold flags, with compare's dataset-scale defaults (daily
  // period, 2% minPS) presented in --help and used when unset.
  MiningQueryFlags mining;
  mining.per = 1440;
  mining.min_ps_pct = 2.0;
  double min_sup_pct = 0.1;
  uint64_t max_pp = 500000;
  parser.AddString("input", "", "event file path", &input);
  parser.AddString("format", "tspmf", "input format: tspmf|spmf|csv",
                   &format);
  mining.Register(&parser);
  parser.AddDouble("min-sup-pct", 0.1,
                   "minSup for PF and p-patterns, percent of |TDB|",
                   &min_sup_pct);
  parser.AddUint64("max-pp", 500000,
                   "p-pattern enumeration cap (0 = unlimited)", &max_pp);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, format);
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  const TransactionDatabase& db = (*snapshot)->db();

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
  if (!query.ok()) return Fail(err, query.status());
  QuerySession session(*snapshot);
  Result<QueryResult> rp_result = session.Run(*query);
  if (!rp_result.ok()) return Fail(err, rp_result.status());

  baselines::PPatternParams pp;
  pp.period = mining.per;
  pp.min_sup = min_sup;
  baselines::PPatternOptions pp_options;
  pp_options.max_stored_patterns = 1;
  pp_options.max_total_patterns = max_pp;
  auto pp_result = baselines::MinePPatterns(db, pp, pp_options);

  out << "model                 patterns    max_len  seconds\n";
  char line[128];
  std::snprintf(line, sizeof(line), "%-20s %10zu %8zu %8.2f\n",
                "pf-patterns", pf_result.patterns.size(), pf_len,
                pf_result.seconds);
  out << line;
  std::snprintf(line, sizeof(line), "%-20s %10zu %8zu %8.2f\n",
                "recurring-patterns", rp_result->patterns.size(),
                MaxPatternLength(rp_result->patterns),
                rp_result->stats.total_seconds);
  out << line;
  std::snprintf(line, sizeof(line), "%-20s %s%9zu %8zu %8.2f\n",
                "p-patterns", pp_result.truncated ? ">" : " ",
                pp_result.total_found, pp_result.max_length,
                pp_result.seconds);
  out << line;
  return 0;
}

int CmdGenerate(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  FlagParser parser("rpminer generate",
                    "synthesize one of the paper's evaluation datasets");
  std::string dataset, output;
  double scale = 1.0;
  uint64_t seed = 42;
  parser.AddString("dataset", "twitter", "quest|shop14|twitter", &dataset);
  parser.AddString("output", "", "output path (tspmf); empty = stdout",
                   &output);
  parser.AddDouble("scale", 1.0, "fraction of the paper's size (0,1]",
                   &scale);
  parser.AddUint64("seed", 42, "generator seed", &seed);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (scale <= 0.0 || scale > 1.0) {
    err << "--scale must be in (0, 1]\n";
    return 1;
  }
  TransactionDatabase db;
  if (dataset == "quest") {
    db = gen::MakeT10I4D100K(scale, seed);
  } else if (dataset == "shop14") {
    db = gen::MakeShop14(scale, seed).db;
  } else if (dataset == "twitter") {
    db = gen::MakeTwitter(scale, seed).db;
  } else {
    err << "unknown --dataset '" << dataset << "'\n" << parser.Help();
    return 1;
  }
  err << "generated: " << ComputeStats(db).ToString() << "\n";
  Status write = output.empty()
                     ? WriteTimestampedSpmf(db, &out)
                     : WriteTimestampedSpmfFile(db, output);
  if (!write.ok()) return Fail(err, write);
  return 0;
}

int CmdConvert(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  FlagParser parser("rpminer convert",
                    "convert an event CSV to timestamped SPMF");
  std::string input, output;
  parser.AddString("input", "", "event CSV path (timestamp,item rows)",
                   &input);
  parser.AddString("output", "", "output path; empty = stdout", &output);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  if (input.empty()) {
    err << "--input is required\n" << parser.Help();
    return 1;
  }
  Result<std::shared_ptr<const DatasetSnapshot>> snapshot =
      LoadSnapshot(input, "csv");
  if (!snapshot.ok()) return Fail(err, snapshot.status());
  const TransactionDatabase& db = (*snapshot)->db();
  Status write = output.empty()
                     ? WriteTimestampedSpmf(db, &out)
                     : WriteTimestampedSpmfFile(db, output);
  if (!write.ok()) return Fail(err, write);
  err << "converted " << db.size() << " transactions\n";
  return 0;
}

int CmdVerify(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  FlagParser parser("rpminer verify",
                    "differential correctness harness: randomized cases "
                    "cross-checked against the definitional oracle, the "
                    "parallel miner, the query engine and the windowed "
                    "miner");
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
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  // First SIGINT/SIGTERM stops after the current case/trial and reports
  // what completed; a second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);

  if (faults > 0) {
    if (fault_ppm > 1000000) {
      err << "--fault-ppm must be <= 1000000\n";
      return 1;
    }
    FaultCampaignOptions campaign;
    campaign.trials = faults;
    campaign.seed = seed;
    campaign.probability_ppm = static_cast<uint32_t>(fault_ppm);
    campaign.parallel_threads = threads == 0 ? 4 : threads;
    campaign.max_failures = max_failures == 0 ? 1 : max_failures;
    campaign.cancel = &cancel_token;
    FaultCampaignReport report = RunFaultCampaign(campaign);
    out << report.ToString() << "\n";
    if (report.cancelled) return 2;
    return report.ok() ? 0 : 2;
  }
  if (cases == 0) {
    err << "--cases must be >= 1\n";
    return 1;
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
    if (mining.min_ps_pct >= 0.0) {
      err << "--min-ps-pct is per-database; use absolute --min-ps with "
             "--fixed-params\n";
      return 1;
    }
    if (mining.top_k > 0 || mining.closed || mining.maximal ||
        mining.max_len > 0 || mining.window > 0 || mining.delta > 0) {
      err << "--fixed-params supports threshold flags only "
             "(per/min-ps/min-rec/tolerance)\n";
      return 1;
    }
    // Same resolution path as `mine` (db size is irrelevant without pct).
    Result<Query> query = mining.ToQuery(/*db_size=*/0);
    if (!query.ok()) return Fail(err, query.status());
    options.fixed_params = query->params;
  }
  verify::VerifyReport report = verify::RunVerification(options);
  out << verify::FormatReport(report, options);
  if (report.cancelled) return 2;
  return report.ok() ? 0 : 2;
}

/// `rpminer serve`: long-lived query server over line-delimited JSON on
/// loopback TCP. Datasets are the positional args as name=path[:format];
/// more can be hot-swapped in over the wire ({"op":"swap"}). Runs until
/// SIGINT/SIGTERM, then drains: stop accepting, cancel in-flight queries,
/// flush responses, force-close at --drain-deadline-ms.
int CmdServe(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  FlagParser parser("rpminer serve",
                    "serve mining queries over line-delimited JSON");
  ServeFlags flags;
  flags.Register(&parser);
  if (Status s = parser.Parse(argc, argv); !s.ok()) {
    err << s.ToString() << "\n" << parser.Help();
    return 1;
  }
  Result<serve::QueryService::Options> service_options =
      flags.ToServiceOptions();
  if (!service_options.ok()) return Fail(err, service_options.status());
  Result<serve::Server::Options> server_options = flags.ToServerOptions();
  if (!server_options.ok()) return Fail(err, server_options.status());

  serve::TenantRegistry tenants;
  if (!flags.config.empty()) {
    std::ifstream config(flags.config);
    if (!config) {
      return Fail(err, Status::IOError("cannot open --config file '" +
                                       flags.config + "'"));
    }
    if (Status s = tenants.LoadConfig(config); !s.ok()) {
      return Fail(err, s);
    }
  }

  // Positional datasets: name=path or name=path:format.
  engine::SnapshotRegistry registry;
  for (const std::string& spec : parser.positional()) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Fail(err, Status::InvalidArgument(
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
        LoadSnapshot(path, format);
    if (!snapshot.ok()) return Fail(err, snapshot.status());
    if (Status s = registry.Register(name, std::move(*snapshot)); !s.ok()) {
      return Fail(err, s);
    }
    err << "dataset " << name << ": " << path << " (" << format << ")\n";
  }

  serve::QueryService service(&registry, std::move(tenants),
                              *service_options);
  serve::Server server(&service, *server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(err, s);

  // First SIGINT/SIGTERM begins the drain; a second one hard-exits.
  CancellationToken cancel_token;
  ScopedSignalCancellation signal_guard(&cancel_token);
  err << "rpminer serve listening on 127.0.0.1:" << server.port() << "\n";
  out.flush();
  err.flush();
  while (!cancel_token.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  err << "drain: stopping accept loop, cancelling in-flight queries\n";
  const size_t forced = server.Drain();
  err << "drain: complete (" << forced << " session(s) force-closed)\n";
  return 0;
}

}  // namespace

std::string RpminerUsage() {
  return "usage: rpminer <command> [flags]\n"
         "commands:\n"
         "  mine      discover recurring patterns (RP-growth; "
         "--queries=FILE runs many queries on one snapshot)\n"
         "  pf-mine   periodic-frequent baseline (PF-growth++)\n"
         "  pp-mine   p-pattern baseline (periodic-first)\n"
         "  stats     dataset shape summary\n"
         "  advise    suggest per/minPS/minRec starting points\n"
         "  compare   PF vs recurring vs p-patterns on one input\n"
         "  generate  synthesize quest|shop14|twitter dataset\n"
         "  convert   event CSV -> timestamped SPMF\n"
         "  verify    differential correctness harness (randomized "
         "cross-checks)\n"
         "  serve     long-lived query server (line-delimited JSON over "
         "loopback TCP; name=path datasets)\n"
         "run 'rpminer <command> --help' is not supported; invalid flags "
         "print the command's flag list\n";
}

int RunRpminer(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  if (argc < 2) {
    err << RpminerUsage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so subcommands see their own flags as argv[1..].
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "mine") return CmdMine(sub_argc, sub_argv, out, err);
  if (command == "pf-mine") return CmdPfMine(sub_argc, sub_argv, out, err);
  if (command == "pp-mine") return CmdPpMine(sub_argc, sub_argv, out, err);
  if (command == "stats") return CmdStats(sub_argc, sub_argv, out, err);
  if (command == "advise") return CmdAdvise(sub_argc, sub_argv, out, err);
  if (command == "compare") return CmdCompare(sub_argc, sub_argv, out, err);
  if (command == "generate") {
    return CmdGenerate(sub_argc, sub_argv, out, err);
  }
  if (command == "convert") return CmdConvert(sub_argc, sub_argv, out, err);
  if (command == "verify") return CmdVerify(sub_argc, sub_argv, out, err);
  if (command == "serve") return CmdServe(sub_argc, sub_argv, out, err);
  err << "unknown command '" << command << "'\n" << RpminerUsage();
  return 1;
}

}  // namespace rpm::tools
