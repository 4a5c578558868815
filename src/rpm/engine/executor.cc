#include "rpm/engine/executor.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "rpm/common/stopwatch.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/pattern_filters.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/top_k.h"
#include "rpm/core/windowed_miner.h"

namespace rpm::engine {

namespace {

RpGrowthOptions GrowthOptions(const Query& query, size_t num_threads,
                              QueryBudget* budget) {
  RpGrowthOptions options;
  options.max_pattern_length = query.max_pattern_length;
  options.num_threads = num_threads;
  options.budget = budget;
  if (query.top_k == 0) {
    // Top-k descent re-mines; streaming a round's discoveries to the
    // caller's sink would deliver discarded intermediates.
    options.sink = query.sink;
    options.store_patterns = query.store_patterns;
  }
  return options;
}

/// Builds the query's budget when it has limits or a cancellation token;
/// unlimited un-cancellable queries run budget-free (null) and skip every
/// checkpoint. The unique_ptr owns storage; pass .get() downstream.
std::unique_ptr<QueryBudget> MakeBudget(const Query& query) {
  if (query.limits.unlimited() && query.cancel == nullptr) return nullptr;
  return std::make_unique<QueryBudget>(query.limits, query.cancel);
}

/// Folds the budget verdict into `out` after execution. Runtime faults
/// (bad_alloc, escaped worker exceptions) are reported in-band through
/// QueryResult::status — not as a Result error — so batch drivers see a
/// per-query outcome; Result errors remain reserved for malformed
/// requests.
void FinishGoverned(QueryBudget* budget, QueryResult* out) {
  if (budget == nullptr) return;
  if (out->status.ok()) out->status = budget->status();
  out->resource_usage = budget->usage();
}

/// Maps an escaped execution exception onto the result: the query failed,
/// delivered nothing, and says so cleanly. bad_alloc (real or injected via
/// the rptree.alloc failpoint) is a resource verdict; anything else is
/// surfaced verbatim.
void AbsorbException(QueryResult* out) {
  out->patterns.clear();
  out->truncated = true;
  try {
    throw;
  } catch (const std::bad_alloc&) {
    out->status =
        Status::ResourceExhausted("allocation failed during query execution");
  } catch (const std::exception& e) {
    out->status = Status::Unknown(std::string("query execution failed: ") +
                                  e.what());
  }
}

void ApplyFilters(const TransactionDatabase& db, const Query& query,
                  std::vector<RecurringPattern>* patterns) {
  if (query.closed) *patterns = FilterClosed(db, std::move(*patterns));
  if (query.maximal) *patterns = FilterMaximal(std::move(*patterns));
}

/// The planner-backed execution path shared by the sequential and parallel
/// backends; they differ only in the mining-phase thread count.
Result<QueryResult> ExecutePlanned(QueryPlanner& planner, const Query& query,
                                   size_t num_threads, const char* backend) {
  RPM_RETURN_NOT_OK(query.Validate());
  Stopwatch total;
  QueryResult out;
  out.backend = backend;
  std::unique_ptr<QueryBudget> budget_storage = MakeBudget(query);
  QueryBudget* budget = budget_storage.get();

  try {
    if (query.top_k > 0) {
      if (!planner.snapshot().empty()) {
        // Plan at the descent floor: every round's min_rec is >= the floor,
        // so one cached build serves the whole descent (and any later
        // same-period query).
        TopKOptions top_k_options;
        top_k_options.floor_min_rec = 1;
        top_k_options.max_pattern_length = query.max_pattern_length;
        top_k_options.max_gap_violations = query.params.max_gap_violations;
        RpParams floor_params = query.params;
        floor_params.min_rec = top_k_options.floor_min_rec;
        Stopwatch plan_clock;
        QueryPlanner::Plan plan = planner.PlanFor(floor_params, budget);
        out.plan_seconds = plan_clock.ElapsedSeconds();
        out.tree_reused = plan.reused;
        if (budget != nullptr && budget->hard_stopped()) {
          // Build aborted: no usable tree, so no descent. Deterministic
          // empty result, flagged via status/truncated below.
          out.truncated = true;
        } else {
          const PreparedMining& prepared = *plan.prepared;

          std::vector<uint64_t> bounds;
          bounds.reserve(prepared.list.entries().size());
          for (const RpListEntry& e : prepared.list.entries()) {
            bounds.push_back(e.erec);
          }
          Stopwatch exec_clock;
          TopKResult top = MineTopKWithRounds(
              query.params.period, query.params.min_ps, query.top_k,
              TopKInitialMinRec(std::move(bounds), query.top_k,
                                top_k_options.floor_min_rec),
              top_k_options, [&](const RpParams& round_params) {
                RpGrowthResult mined = MineFromPrepared(
                    prepared, prepared.tree, round_params,
                    GrowthOptions(query, num_threads, budget));
                out.stats = mined.stats;
                // A budget stop mid-descent truncates every later round
                // too (the stop is sticky), so the selection below ran on
                // incomplete rounds: flag the whole top-k result. The
                // descent still terminates promptly — stopped rounds
                // abort at their first checkpoint.
                if (mined.truncated) out.truncated = true;
                return mined;
              });
          out.patterns = std::move(top.patterns);
          out.top_k_rounds = top.rounds;
          out.top_k_final_min_rec = top.final_min_rec;
          ApplyFilters(planner.snapshot().db(), query, &out.patterns);
          out.execute_seconds = exec_clock.ElapsedSeconds();
        }
      }
    } else {
      Stopwatch plan_clock;
      QueryPlanner::Plan plan = planner.PlanFor(query.params, budget);
      out.plan_seconds = plan_clock.ElapsedSeconds();
      out.tree_reused = plan.reused;
      if (budget != nullptr && budget->hard_stopped()) {
        // Build aborted mid-plan: the partial tree's ts-lists are
        // incomplete (not a prefix of any canonical order), so mining it
        // would fabricate recurrences. Deterministic empty result.
        out.truncated = true;
      } else {
        Stopwatch exec_clock;
        RpGrowthResult mined = MineFromPrepared(
            *plan.prepared, plan.prepared->tree, query.params,
            GrowthOptions(query, num_threads, budget));
        out.patterns = std::move(mined.patterns);
        out.stats = mined.stats;
        out.truncated = mined.truncated;
        ApplyFilters(planner.snapshot().db(), query, &out.patterns);
        out.execute_seconds = exec_clock.ElapsedSeconds();
      }
    }
  } catch (...) {
    AbsorbException(&out);
  }

  FinishGoverned(budget, &out);
  out.session_tree_builds = planner.tree_builds();
  out.total_seconds = total.ElapsedSeconds();
  out.stats.total_seconds = out.total_seconds;
  return out;
}

class SequentialExecutor : public Executor {
 public:
  const char* name() const override {
    return BackendName(BackendKind::kSequential);
  }
  Result<QueryResult> Execute(QueryPlanner& planner, const Query& query,
                              const ExecOptions&) const override {
    return ExecutePlanned(planner, query, /*num_threads=*/1, name());
  }
};

class ParallelExecutor : public Executor {
 public:
  const char* name() const override {
    return BackendName(BackendKind::kParallel);
  }
  Result<QueryResult> Execute(QueryPlanner& planner, const Query& query,
                              const ExecOptions& options) const override {
    const size_t threads =
        options.threads == 0 ? 0 : std::max<size_t>(2, options.threads);
    return ExecutePlanned(planner, query, threads, name());
  }
};

/// Replays the snapshot in delta-sized batches through the incremental
/// sliding-window miner and reports the final live window's committed
/// set. On a budget stop mid-stream, the committed set of the prefix of
/// completed deltas IS the deterministic truncated result — the
/// transactional semantics of WindowedMiner::ApplyDelta (DESIGN.md §9).
class WindowedExecutor : public Executor {
 public:
  const char* name() const override {
    return BackendName(BackendKind::kWindowed);
  }

  Result<QueryResult> Execute(QueryPlanner& planner, const Query& query,
                              const ExecOptions&) const override {
    RPM_RETURN_NOT_OK(query.Validate());
    if (query.window <= 0) {
      return Status::InvalidArgument(
          "windowed backend requires --window > 0 (the sliding-window "
          "width in time units)");
    }
    if (query.params.max_gap_violations > 0) {
      return Status::InvalidArgument(
          "windowed backend implements the exact model only "
          "(--tolerance must be 0)");
    }
    if (query.top_k > 0) {
      return Status::InvalidArgument(
          "windowed backend does not support top-k queries");
    }
    if (query.limits.max_patterns > 0) {
      return Status::InvalidArgument(
          "windowed backend does not support max-patterns (a capped "
          "sub-mine would corrupt the per-delta diffs)");
    }
    if (!query.store_patterns) {
      return Status::InvalidArgument(
          "windowed backend maintains the committed pattern set; "
          "store_patterns=false is not supported");
    }
    Stopwatch total;
    QueryResult out;
    out.backend = name();
    const TransactionDatabase& db = planner.snapshot().db();
    std::unique_ptr<QueryBudget> budget_storage = MakeBudget(query);
    QueryBudget* budget = budget_storage.get();

    try {
      WindowedMinerOptions miner_options;
      miner_options.max_pattern_length = query.max_pattern_length;
      WindowedMiner miner(query.params, query.window, miner_options);
      const size_t delta = query.delta == 0
                               ? std::max<size_t>(db.size(), 1)
                               : static_cast<size_t>(query.delta);
      Stopwatch exec_clock;
      const std::vector<Transaction>& txns = db.transactions();
      for (size_t offset = 0; offset < txns.size(); offset += delta) {
        const size_t end = std::min(txns.size(), offset + delta);
        std::vector<Transaction> batch(txns.begin() + offset,
                                       txns.begin() + end);
        PatternDelta pd = miner.ApplyDelta(batch, budget);
        if (!pd.applied) {
          // Refused delta: the miner still holds the committed prefix.
          out.truncated = true;
          if (!pd.status.ok() && budget == nullptr) out.status = pd.status;
          break;
        }
        if (query.sink) {
          for (const RecurringPattern& p : pd.added) query.sink(p);
        }
      }
      out.patterns = miner.patterns();
      out.stats = miner.mining_stats();
      out.windowed = miner.counters();
      ApplyFilters(db, query, &out.patterns);
      out.execute_seconds = exec_clock.ElapsedSeconds();
    } catch (...) {
      AbsorbException(&out);
    }

    FinishGoverned(budget, &out);
    out.session_tree_builds = planner.tree_builds();
    out.total_seconds = total.ElapsedSeconds();
    out.stats.total_seconds = out.total_seconds;
    return out;
  }
};

}  // namespace

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSequential:
      return "sequential";
    case BackendKind::kParallel:
      return "parallel";
    case BackendKind::kWindowed:
      return "windowed";
  }
  return "unknown";
}

Result<BackendKind> ParseBackend(const std::string& name) {
  if (name == "sequential") return BackendKind::kSequential;
  if (name == "parallel") return BackendKind::kParallel;
  if (name == "windowed") return BackendKind::kWindowed;
  return Status::InvalidArgument(
      "unknown backend '" + name +
      "' (expected sequential, parallel or windowed)");
}

const Executor& GetExecutor(BackendKind kind) {
  static const SequentialExecutor sequential;
  static const ParallelExecutor parallel;
  static const WindowedExecutor windowed;
  switch (kind) {
    case BackendKind::kParallel:
      return parallel;
    case BackendKind::kWindowed:
      return windowed;
    case BackendKind::kSequential:
      break;
  }
  return sequential;
}

}  // namespace rpm::engine
