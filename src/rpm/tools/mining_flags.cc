#include "rpm/tools/mining_flags.h"

#include <cmath>
#include <sstream>
#include <vector>

namespace rpm::tools {

void MiningQueryFlags::Register(FlagParser* parser) {
  parser->AddInt64("per", per, "period threshold (Definition 4)", &per);
  parser->AddUint64("min-ps", min_ps, "absolute minPS (Definition 7)",
                    &min_ps);
  parser->AddDouble("min-ps-pct", min_ps_pct,
                    "minPS as percent of |TDB| (overrides --min-ps)",
                    &min_ps_pct);
  parser->AddUint64("min-rec", min_rec, "minRec (Definition 9)", &min_rec);
  parser->AddUint64(
      "tolerance", tolerance,
      "noise tolerance: over-period gaps absorbed per interval", &tolerance);
  parser->AddUint64("top-k", top_k,
                    "mine the k most-recurring patterns instead of using "
                    "--min-rec",
                    &top_k);
  parser->AddUint64("max-length", max_len,
                    "pattern length cap (0 = unlimited)", &max_len);
  parser->AddBool("closed", closed, "keep only closed patterns", &closed);
  parser->AddBool("maximal", maximal, "keep only maximal patterns",
                  &maximal);
  parser->AddUint64("timeout-ms", timeout_ms,
                    "wall-clock deadline per query; over-deadline queries "
                    "stop with a deterministic partial result (0 = none)",
                    &timeout_ms);
  parser->AddUint64("max-memory-mb", max_memory_mb,
                    "budget for tracked mining memory (RP-tree nodes + "
                    "timestamps); 0 = unlimited",
                    &max_memory_mb);
  parser->AddUint64("max-patterns", max_patterns,
                    "stop after this many patterns (deterministic prefix "
                    "of the canonical order); 0 = unlimited",
                    &max_patterns);
  parser->AddInt64("window", window,
                   "sliding-window width in time units for "
                   "--backend=windowed (0 = not windowed)",
                   &window);
  parser->AddUint64("delta", delta,
                    "transactions per incremental batch for "
                    "--backend=windowed (0 = one batch)",
                    &delta);
}

Result<engine::Query> MiningQueryFlags::ToQuery(size_t db_size) const {
  engine::Query query;
  query.params.period = per;
  uint64_t resolved_min_ps = min_ps;
  if (min_ps_pct >= 0.0) {
    resolved_min_ps = static_cast<uint64_t>(
        std::ceil(min_ps_pct / 100.0 * static_cast<double>(db_size)));
  }
  if (resolved_min_ps == 0) resolved_min_ps = 1;
  query.params.min_ps = resolved_min_ps;
  query.params.min_rec = min_rec;
  query.params.max_gap_violations = static_cast<uint32_t>(tolerance);
  query.top_k = top_k;
  query.max_pattern_length = max_len;
  query.closed = closed;
  query.maximal = maximal;
  query.limits.timeout_ms = static_cast<int64_t>(timeout_ms);
  query.limits.memory_budget_bytes = max_memory_mb * 1024 * 1024;
  query.limits.max_patterns = max_patterns;
  query.window = window;
  query.delta = delta;
  RPM_RETURN_NOT_OK(query.Validate());
  return query;
}

Status MiningQueryFlags::RequireMinPs() const {
  if (min_ps == 0 && min_ps_pct < 0.0) {
    return Status::InvalidArgument(
        "a query needs --min-ps (>= 1) or --min-ps-pct: without a minPS "
        "every itemset is a candidate");
  }
  return Status::OK();
}

void ExecFlags::Register(FlagParser* parser) {
  parser->AddUint64("threads", threads,
                    "mining worker threads (0 = one per hardware thread, "
                    "1 = sequential); results are identical either way",
                    &threads);
  parser->AddString("backend", backend,
                    "executor: sequential|parallel|windowed "
                    "(default: sequential, parallel when --threads != 1)",
                    &backend);
}

Status ExecFlags::Check() const {
  if (threads != 1 && (backend == "sequential" || backend == "windowed")) {
    return Status::InvalidArgument(
        "--threads=" + std::to_string(threads) + " conflicts with --backend=" +
        backend + ": that backend mines on one thread");
  }
  return Status::OK();
}

Result<ParsedQueryLine> ResolveQuery(const MiningQueryFlags& mining,
                                     const ExecFlags& exec, size_t db_size) {
  RPM_RETURN_NOT_OK(exec.Check());
  RPM_RETURN_NOT_OK(mining.RequireMinPs());
  ParsedQueryLine parsed;
  RPM_ASSIGN_OR_RETURN(parsed.query, mining.ToQuery(db_size));
  parsed.backend = exec.threads == 1 ? engine::BackendKind::kSequential
                                     : engine::BackendKind::kParallel;
  if (!exec.backend.empty()) {
    RPM_ASSIGN_OR_RETURN(parsed.backend, engine::ParseBackend(exec.backend));
  }
  parsed.threads = exec.threads;
  return parsed;
}

Result<ParsedQueryLine> ParseMiningQuery(const std::string& line,
                                         size_t db_size) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  for (std::string token; stream >> token;) tokens.push_back(token);

  // Reuse the real parser so a query line accepts exactly the syntax (and
  // rejects exactly the typos) the command line would.
  FlagParser parser("query", "one --queries file line");
  MiningQueryFlags mining;
  ExecFlags exec;
  mining.Register(&parser);
  exec.Register(&parser);

  std::vector<const char*> argv = {"query"};  // Parse() skips argv[0].
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  RPM_RETURN_NOT_OK(
      parser.Parse(static_cast<int>(argv.size()), argv.data()));
  if (!parser.positional().empty()) {
    return Status::InvalidArgument("query line has non-flag token '" +
                                   parser.positional().front() + "'");
  }
  return ResolveQuery(mining, exec, db_size);
}

}  // namespace rpm::tools
