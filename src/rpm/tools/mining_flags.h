// One definition of the per-query flags for every entry point.
//
// `rpminer mine`, `verify --fixed-params`, `compare` and the --queries
// lines share the threshold flags; `mine` and the --queries lines also
// share --backend/--threads and the rule that resolves both (ResolveQuery),
// so the entry points cannot drift apart (defaults are regression-pinned
// in tests/mining_flags_test.cc).

#ifndef RPM_TOOLS_MINING_FLAGS_H_
#define RPM_TOOLS_MINING_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rpm/common/flags.h"
#include "rpm/common/status.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/query.h"

namespace rpm::tools {

/// The shared threshold/filter flag set with its canonical defaults.
/// Mutate fields *before* Register() to present different defaults
/// (compare keeps its dataset-scale per/min-ps-pct) — the resolution
/// rules stay shared either way.
struct MiningQueryFlags {
  int64_t per = 1;           ///< --per
  uint64_t min_ps = 0;       ///< --min-ps (0 = unset; ToQuery resolves 1)
  double min_ps_pct = -1.0;  ///< --min-ps-pct (>= 0 overrides --min-ps)
  uint64_t min_rec = 1;      ///< --min-rec
  uint64_t tolerance = 0;    ///< --tolerance
  uint64_t top_k = 0;        ///< --top-k
  uint64_t max_len = 0;      ///< --max-length
  bool closed = false;       ///< --closed
  bool maximal = false;      ///< --maximal
  // Resource governance (DESIGN.md §7); 0 = unlimited.
  uint64_t timeout_ms = 0;     ///< --timeout-ms
  uint64_t max_memory_mb = 0;  ///< --max-memory-mb
  uint64_t max_patterns = 0;   ///< --max-patterns
  // Sliding-window model (--backend=windowed); 0 = not windowed.
  int64_t window = 0;  ///< --window
  uint64_t delta = 0;  ///< --delta

  /// The names Register() adds, for flag-combination checks.
  inline static const std::vector<std::string> kNames = {
      "per",        "min-ps",     "min-ps-pct",    "min-rec",
      "tolerance",  "top-k",      "max-length",    "closed",
      "maximal",    "timeout-ms", "max-memory-mb", "max-patterns",
      "window",     "delta"};

  /// Registers all fourteen flags on `parser`, using the current field
  /// values as the advertised defaults. `this` must outlive
  /// parser.Parse().
  void Register(FlagParser* parser);

  /// Resolves the (parsed) fields against a database of `db_size`
  /// transactions: --min-ps-pct >= 0 sets minPS = ceil(pct/100 * db_size),
  /// a zero minPS becomes 1, and the result is validated. The returned
  /// query's params.min_rec is the flag value even when top_k > 0 (the
  /// descent overrides it, matching `rpminer mine`).
  Result<engine::Query> ToQuery(size_t db_size) const;

  /// InvalidArgument naming both flags unless --min-ps (>= 1) or
  /// --min-ps-pct is given. Without a minPS every itemset of a real
  /// dataset is a candidate and the mine grows until memory runs out, so
  /// `mine` and the --queries lines require one (ResolveQuery); compare
  /// and verify keep ToQuery's default of 1.
  Status RequireMinPs() const;
};

/// --backend and --threads, as `mine` and every --queries line take them.
struct ExecFlags {
  std::string backend;   ///< --backend ("" = chosen by --threads)
  uint64_t threads = 1;  ///< --threads (0 = one per hardware thread)

  void Register(FlagParser* parser);
  /// InvalidArgument naming both flags when --threads is not 1 but
  /// --backend names sequential or windowed: both mine on one thread.
  Status Check() const;
};

/// One resolved query: what it asks and how it runs.
struct ParsedQueryLine {
  engine::Query query;
  engine::BackendKind backend = engine::BackendKind::kSequential;
  /// Worker threads for the parallel backend (engine::ExecOptions).
  uint64_t threads = 1;
};

/// Resolves parsed query flags, for the `mine` command line and every
/// --queries line alike: ExecFlags::Check, MiningQueryFlags::RequireMinPs,
/// MiningQueryFlags::ToQuery, and --backend, or by default sequential at
/// --threads=1 and else parallel.
Result<ParsedQueryLine> ResolveQuery(const MiningQueryFlags& mining,
                                     const ExecFlags& exec, size_t db_size);

/// Parses one --queries file line (the MiningQueryFlags and ExecFlags
/// sets) through ResolveQuery. Tokens are whitespace-separated (no
/// quoting; `--flag=value` form recommended). The caller strips blank
/// lines and '#' comments.
Result<ParsedQueryLine> ParseMiningQuery(const std::string& line,
                                         size_t db_size);

}  // namespace rpm::tools

#endif  // RPM_TOOLS_MINING_FLAGS_H_
