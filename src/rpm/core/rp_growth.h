// RP-growth: pattern-growth mining of recurring patterns (Sec. 4,
// Algorithms 1-5).
//
// Pipeline:
//   1. One database scan builds the RP-list and prunes non-candidate items
//      by the Erec bound (Algorithm 1).
//   2. A second scan builds the RP-tree over candidate items in
//      support-descending order (Algorithms 2-3).
//   3. Bottom-up mining over the sealed tree, whose layout makes the
//      ts-list push-up implicit: for each suffix item collect TS^beta,
//      gate on Erec(beta) >= minRec, test the pattern with getRecurrence
//      (Algorithm 5), build the conditional tree from items passing the
//      conditional Erec gate, recurse (Algorithm 4).

#ifndef RPM_CORE_RP_GROWTH_H_
#define RPM_CORE_RP_GROWTH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/core/cancellation.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/rp_tree.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm {

/// Search-space gate used while growing patterns.
enum class PruningMode {
  /// The paper's Erec bound (Sec. 4.1) — default.
  kErec,
  /// Ablation baseline: only the trivial anti-monotone gate
  /// Sup(X) >= minPS * minRec (every recurring pattern needs that many
  /// timestamps). This is what a naive adaptation without the paper's
  /// contribution would use.
  kSupportOnly,
};

struct RpGrowthOptions {
  PruningMode pruning = PruningMode::kErec;
  /// 0 = unlimited. Patterns longer than this are neither emitted nor
  /// explored (useful to bound ablation runs).
  size_t max_pattern_length = 0;
  /// Invoked once per discovered pattern, in discovery (not canonical)
  /// order. Lets callers stream results to disk / aggregate counts without
  /// materialising the full set.
  std::function<void(const RecurringPattern&)> sink;
  /// When false, discovered patterns are only delivered to `sink` (and
  /// counted in stats) — RpGrowthResult::patterns stays empty. Low
  /// thresholds can produce 10^4-10^5 patterns (Table 5); combined with a
  /// sink this caps memory at O(tree).
  bool store_patterns = true;
  /// Worker threads: 1 = the sequential reference path, 0 = one per
  /// hardware thread, N = exactly N. The RP-list scan and the RP-tree
  /// build are always sequential; with N > 1 the workers take suffix
  /// items directly and mine them concurrently over the one shared
  /// tree. The pattern set, its
  /// canonical order and all stats counters are identical for every
  /// value. `sink` callbacks are serialized (never concurrent), but their
  /// *order* is only deterministic at num_threads == 1.
  size_t num_threads = 1;
  /// Resource governance (DESIGN.md §7): deadline / memory / cancellation
  /// checkpoints plus the max-patterns cap. Not owned; null = ungoverned
  /// (zero overhead beyond one branch per checkpoint site). Truncation is
  /// all-or-nothing per top-level suffix subproblem: the result holds the
  /// complete patterns of a contiguous prefix of the bottom-up
  /// (descending-rank) subproblem order, so a max_patterns cut is
  /// bit-identical across sequential and parallel runs. Under an active
  /// budget, `sink` is best-effort — it may observe patterns from
  /// subproblems that are later dropped from the committed result.
  QueryBudget* budget = nullptr;
};

/// Instrumentation for the performance study and the pruning ablation.
struct RpGrowthStats {
  size_t num_items = 0;             ///< Distinct items in the database.
  size_t num_candidate_items = 0;   ///< Items surviving the RP-list gate.
  size_t initial_tree_nodes = 0;    ///< RP-tree size after construction.
  size_t conditional_trees = 0;     ///< Trees built during mining.
  size_t patterns_examined = 0;     ///< Suffix growths whose gate was run.
  size_t patterns_emitted = 0;      ///< Recurring patterns found.
  size_t threads_used = 1;          ///< Mining-phase worker count.
  // Ts-list merge-kernel counters (src/rpm/core/ts_merge.h). They count
  // every kernel call: the once-per-path sorts of multi-run pattern-base
  // lists that reach a rank surviving the count, and the TS^{beta+i}
  // merges (a top-level TS^item is the tree's rank list, never merged).
  // All three are schedule-invariant: parallel runs report exactly the
  // sequential values.
  size_t merge_invocations = 0;     ///< Run-merge kernel calls.
  size_t runs_merged = 0;           ///< Sorted runs consumed by the kernel.
  size_t timestamps_merged = 0;     ///< Timestamps written by the kernel.
  // Gate-scan counters (GateCounters, core/measures.h). Also
  // schedule-invariant: which ts-lists get gate-scanned depends only on
  // the data and params, never on the worker schedule.
  size_t gate_lists_scanned = 0;    ///< Gate / interval scans performed.
  size_t gate_gaps_scanned = 0;     ///< Timestamp gaps evaluated in scans.
  /// TS-lists skipped by the count-first rule: TS^{beta+i} lists, and
  /// top-level TS^item lists of a tree built at looser params, whose
  /// length is below MinSupport(params), so no order of theirs could
  /// pass the gate. Each would otherwise have cost a gate scan in the
  /// exact model, plus one merge for a TS^{beta+i} or a pattern-base walk
  /// for a top-level list. Schedule-invariant, like the counters above.
  size_t support_pruned = 0;
  /// Peak bytes retained by the miner scratch pools (frames with their
  /// sorted-path slabs and accumulators, run descriptors, merge and mask
  /// buffers). Sequential: the single pool's high-water mark; parallel:
  /// the largest per-worker pool.
  size_t scratch_bytes_peak = 0;
  /// Bytes retained across ALL scratch pools together — the number
  /// comparable between thread counts (equals scratch_bytes_peak when
  /// sequential; the sum over per-worker pools when parallel).
  size_t scratch_bytes_total = 0;
  double list_seconds = 0.0;        ///< Wall clock of the RP-list scan.
  double tree_seconds = 0.0;        ///< Wall clock of RP-tree construction.
  /// Wall clock of the mining phase.
  double mine_seconds = 0.0;
  /// Mining time summed across workers. Equals mine_seconds on one
  /// thread; exceeds it under parallelism (the ratio is the effective
  /// mining-phase speedup).
  double mine_cpu_seconds = 0.0;
  /// End-to-end wall clock, measured on its own stopwatch — NOT the sum
  /// of the phase timers, so parallel speedup stays visible even if
  /// phases ever overlap.
  double total_seconds = 0.0;
};

struct RpGrowthResult {
  std::vector<RecurringPattern> patterns;
  RpGrowthStats stats;
  /// Budget verdict: OK when the run completed (or was only cut by the
  /// soft max-patterns cap); kDeadlineExceeded / kResourceExhausted /
  /// kCancelled when a hard stop ended it early. Always OK without a
  /// budget.
  Status status;
  /// True when one or more subproblems were dropped — `patterns` then
  /// holds the committed bottom-up prefix. A non-OK status with
  /// truncated == false means the budget tripped only after mining had
  /// already completed (result is whole). Under truncation,
  /// stats.patterns_emitted counts committed patterns only, while the
  /// exploration counters (patterns_examined, conditional_trees, merge_*)
  /// keep counting the work actually performed.
  bool truncated = false;
};

/// Mines the complete set of recurring patterns of `db` under `params`.
/// `params` must validate (checked; invalid params are a caller bug).
/// Deterministic: patterns are returned in canonical itemset order.
///
/// Output size caution: like all itemset mining, the result can be
/// exponential in the longest transaction when thresholds are loose
/// (minPS * minRec close to 1). Use realistic thresholds, and
/// options.max_pattern_length / options.store_patterns=false to bound
/// exploration and memory when probing unknown data.
RpGrowthResult MineRecurringPatterns(const TransactionDatabase& db,
                                     const RpParams& params,
                                     const RpGrowthOptions& options = {});

// --- Phase-split API (query engine) ----------------------------------------
//
// Passes 1-2 (RP-list scan, candidate ordering, RP-tree construction) are
// query-independent given (period, tolerance, pruning mode): tightening
// minPS/minRec only *shrinks* the candidate set, so a tree built at looser
// thresholds is a superset of the stricter tree and mining it under the
// stricter params yields the identical pattern set (the Erec bound is
// anti-monotone and every per-pattern test is evaluated exactly from
// TS^beta). The engine's planner builds once via PrepareMining and mines
// many times via MineFromPrepared, every time straight off the one sealed
// tree.

/// Query-independent mining state: the RP-list and the built (unmined)
/// RP-tree, plus the build-phase stats that an end-to-end run would report.
struct PreparedMining {
  /// Params the tree was built at (the loosest params this build serves).
  RpParams params;
  PruningMode pruning = PruningMode::kErec;
  /// Full per-item aggregates (supports top-k threshold seeding).
  RpList list;
  /// Candidate order of the tree (rank r holds items_by_rank[r]).
  std::vector<ItemId> items_by_rank;
  /// The built, sealed tree. Mining only reads it, so one build serves
  /// any number of mines, concurrent ones included.
  TsPrefixTree tree{std::vector<ItemId>{}};
  // Build-phase stats, folded into every MineFromPrepared result:
  size_t num_items = 0;
  size_t num_candidate_items = 0;
  size_t initial_tree_nodes = 0;
  double list_seconds = 0.0;
  double tree_seconds = 0.0;
};

/// Runs passes 1-2 over `db` at `params` (which must validate). `budget`
/// (optional) checkpoints both scans and accounts tree bytes while
/// building; on a hard stop the returned build is partial and must be
/// discarded, never cached (check budget->hard_stopped()).
PreparedMining PrepareMining(const TransactionDatabase& db,
                             const RpParams& params,
                             PruningMode pruning = PruningMode::kErec,
                             QueryBudget* budget = nullptr);

/// Pass 2 only: builds and seals the RP-tree of `db` over an externally
/// supplied candidate order (every id in `items_by_rank` distinct and <
/// db.ItemUniverseSize()). PrepareMining passes the batch RP-list's
/// candidate order; callers that time the tree build on its own (benches)
/// pass the same order from a prepared build.
/// With a budget, the build checkpoints per transaction and reports the
/// builder's growing bytes (released again before returning — the caller
/// re-tracks the finished tree for the mining phase); a stopped build
/// returns a partial tree the caller must discard.
///
/// The build is sequential: move-to-front sibling lists (rp_tree.h) make
/// it cheaper than any partition-and-fold scheme measured (EXPERIMENTS.md).
/// `ignored_threads` is accepted for source compatibility with callers
/// that still pass a thread count and has no effect.
TsPrefixTree BuildRankedTree(const TransactionDatabase& db,
                             const std::vector<ItemId>& items_by_rank,
                             QueryBudget* budget = nullptr,
                             size_t ignored_threads = 1);

/// Pass 3 (bottom-up mining) over `tree`, which is only read, so
/// concurrent calls may share it. `tree` must be `prepared.tree` (or a
/// Clone() of it, or the result of RetireBefore on it), and `params` must
/// be no looser than prepared.params: same period and max_gap_violations,
/// params.min_ps >= prepared.params.min_ps, params.min_rec >=
/// prepared.params.min_rec (checked). options.pruning must equal
/// prepared.pruning. With equal params the result — patterns, stats
/// counters, canonical order — is bit-identical to MineRecurringPatterns;
/// with stricter params the pattern set is still exactly the stricter
/// run's, while tree/exploration counters reflect the looser build.
/// stats.total_seconds covers only this call (build time is in the folded
/// list_seconds/tree_seconds).
RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                const TsPrefixTree& tree,
                                const RpParams& params,
                                const RpGrowthOptions& options = {});

}  // namespace rpm

#endif  // RPM_CORE_RP_GROWTH_H_
