#include "rpm/core/rp_growth.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "rpm/common/failpoint.h"
#include "rpm/common/logging.h"
#include "rpm/common/stopwatch.h"
#include "rpm/core/measures.h"
#include "rpm/core/rp_tree.h"
#include "rpm/core/thread_pool.h"
#include "rpm/core/ts_merge.h"

namespace rpm {
namespace {

/// Nodes whose ancestor chains CollectAndMine walks in lockstep.
constexpr uint32_t kWalkLanes = 16;

/// One (prefix path, ts-list) element of a conditional pattern base. The
/// ancestor ranks live in the owning frame's flat rank storage (no
/// per-path heap allocation). The ts-list starts as a range of the mined
/// tree's slab (a concatenation of sorted runs); SortPath replaces it with
/// a sorted list before the path enters a conditional tree.
struct PathRef {
  uint32_t ranks_begin = 0;  // Offset into the frame's rank storage.
  uint32_t ranks_len = 0;
  std::span<const Timestamp> ts;
};

/// Per-recursion-level scratch. Frames are pooled by depth and reused
/// across every subproblem mined at that depth, so after warm-up a whole
/// mining run performs no per-level allocations. A frame's buffers stay
/// live while deeper levels recurse — the child level reads its TS^beta
/// lists from the kept entries of acc — which is why frames are pooled
/// per depth rather than shared.
struct Frame {
  // Conditional-pattern-base collection (CollectAndMine):
  std::vector<PathRef> paths;
  std::vector<uint32_t> rank_storage;   ///< Flat ancestor-rank slab.
  std::vector<PeriodicInterval> intervals;  ///< Fused-gate output.
  // Conditional-tree construction (BuildConditionalAndRecurse); support,
  // acc and runs_by_rank are indexed by parent rank and grow-only, with
  // only the touched entries cleared after use.
  TimestampList sorted_paths;           ///< Paths' sorted lists (SortPath).
  std::vector<TsRun> path_runs;         ///< One path's run split.
  std::vector<size_t> support;          ///< |TS^{beta+item}|, counted.
  std::vector<TimestampList> acc;           ///< Merged TS^{beta+item}.
  std::vector<std::vector<TsRun>> runs_by_rank;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> kept;
  std::vector<uint32_t> new_rank_of;
  std::vector<uint32_t> mapped;

  size_t ByteFootprint() const {
    size_t bytes = paths.capacity() * sizeof(PathRef) +
                   rank_storage.capacity() * sizeof(uint32_t) +
                   sorted_paths.capacity() * sizeof(Timestamp) +
                   intervals.capacity() * sizeof(PeriodicInterval) +
                   path_runs.capacity() * sizeof(TsRun) +
                   support.capacity() * sizeof(size_t) +
                   (touched.capacity() + kept.capacity() +
                    new_rank_of.capacity() + mapped.capacity()) *
                       sizeof(uint32_t);
    bytes += acc.capacity() * sizeof(TimestampList);
    for (const TimestampList& slab : acc) {
      bytes += slab.capacity() * sizeof(Timestamp);
    }
    bytes += runs_by_rank.capacity() * sizeof(std::vector<TsRun>);
    for (const std::vector<TsRun>& runs : runs_by_rank) {
      bytes += runs.capacity() * sizeof(TsRun);
    }
    return bytes;
  }
};

/// Reusable per-miner (per-worker) scratch pool: one frame per recursion
/// depth plus the shared merge-kernel buffers and counters. Not
/// thread-safe — the parallel path allocates one pool per worker.
class MinerScratch {
 public:
  /// Frame for recursion depth `depth`; stable address across later calls
  /// (frames are held by unique_ptr so growing the pool never moves them).
  Frame& FrameAt(size_t depth) {
    while (frames_.size() <= depth) {
      frames_.push_back(std::make_unique<Frame>());
    }
    return *frames_[depth];
  }

  /// Bytes currently retained across all frames, merge buffers and the
  /// mask column. Scratch capacities only grow during a run, so sampling
  /// after mining yields the run's peak.
  size_t ByteFootprint() const {
    size_t bytes = merge.ByteFootprint() + gate_masks.ByteFootprint();
    for (const std::unique_ptr<Frame>& frame : frames_) {
      bytes += frame->ByteFootprint();
    }
    return bytes;
  }

  MergeScratch merge;
  MergeCounters counters;
  TsBlockScratch gate_masks;  ///< Break-mask column (core/measures.h).
  GateCounters gate;          ///< Gate-scan volume accumulated here.

 private:
  std::vector<std::unique_ptr<Frame>> frames_;
};

class Miner {
 public:
  Miner(const RpParams& params, const RpGrowthOptions& options,
        RpGrowthResult* result, MinerScratch* scratch)
      : params_(params),
        options_(options),
        result_(result),
        scratch_(scratch),
        min_support_(MinSupport(params)),
        checkpoint_(options.budget) {}

  /// How one governed top-level subproblem ended. Truncation is
  /// all-or-nothing per subproblem: anything but kComplete means the
  /// subproblem's patterns must be dropped from the committed result.
  enum class Outcome {
    kComplete,  ///< Mined fully; eligible to commit.
    kOverflow,  ///< Emitted more patterns than the cap headroom allows.
    kHardStop,  ///< Deadline / memory / cancellation checkpoint fired.
  };

  /// Mines the top-level subproblem of `rank` (one iteration of
  /// Algorithm 4's outer loop). `cap_headroom` is how many patterns this
  /// subproblem may emit before it is doomed to be dropped by the
  /// max-patterns cut; UINT64_MAX = unlimited. Reads `tree` only, so
  /// workers mine different ranks of one tree concurrently. TS^item is the
  /// tree's sealed rank list, handed down like a conditional level's.
  Outcome MineTopRank(const TsPrefixTree& tree, size_t rank,
                      uint64_t cap_headroom) {
    BeginSubproblem(cap_headroom);
    Itemset suffix;
    CollectAndMine(tree, rank, tree.RankList(rank), &suffix);
    return CurrentOutcome();
  }

  /// Patterns emitted by the most recently mined subproblem (the commit
  /// delta the drivers use for the max-patterns arithmetic).
  uint64_t subproblem_emitted() const { return subproblem_emitted_; }

 private:
  void BeginSubproblem(uint64_t cap_headroom) {
    aborted_ = false;
    overflowed_ = false;
    subproblem_emitted_ = 0;
    cap_headroom_ = cap_headroom;
  }

  Outcome CurrentOutcome() const {
    if (aborted_) return Outcome::kHardStop;
    if (overflowed_) return Outcome::kOverflow;
    return Outcome::kComplete;
  }

  /// Budget checkpoint; sticky per subproblem. True = unwind now.
  bool ShouldStop() {
    if (aborted_ || overflowed_) return true;
    if (checkpoint_.Check()) {
      aborted_ = true;
      return true;
    }
    return false;
  }

  /// Algorithm 4 over the conditional tree `parent` built. `suffix` holds
  /// the items of alpha. Push-up is implicit in the sealed layout: by the
  /// time a rank is mined, its nodes' slab ranges are the pushed-up lists.
  /// Conditional rank nr's TS^beta is the parent's kept accumulator
  /// acc[kept[nr]], merged for its gate, so it is handed down, not merged
  /// again.
  void MineTree(const TsPrefixTree& tree, const Frame& parent,
                Itemset* suffix) {
    for (size_t rank = tree.num_ranks(); rank-- > 0;) {
      if (ShouldStop()) return;
      if (tree.RankBegin(rank) != tree.RankEnd(rank)) {
        CollectAndMine(tree, rank, parent.acc[parent.kept[rank]], suffix);
      }
    }
  }
  /// True when beta (with the given full TS^beta) may still lead to
  /// recurring patterns — the paper's candidate test, or the weaker
  /// support-only gate in the ablation mode.
  bool PassesGate(const TimestampList& sorted_ts) const {
    if (options_.pruning == PruningMode::kSupportOnly) {
      return sorted_ts.size() >= min_support_;
    }
    return ComputeRecurrenceUpperBound(sorted_ts, params_,
                                       &scratch_->gate_masks,
                                       &scratch_->gate) >= params_.min_rec;
  }

  /// Collects the conditional pattern base of the item at `rank` in one
  /// walk over the rank's nodes in chain order, then mines it with
  /// `ts_beta`, the rank's sorted TS^beta: the tree's rank list at the top
  /// level, the parent level's kept accumulator below it. Ancestor ranks
  /// go from the parent links straight into the frame's flat slab.
  ///
  /// Each parent load depends on the one before it, so one chain at a
  /// time waits on one cache miss at a time. The walk therefore takes the
  /// nodes kWalkLanes at a time: it first advances all their chains one
  /// step per round, counting each path's length, so the lanes' misses
  /// are in flight together; then it writes each lane's ranks back to
  /// front over the now-cached links, so a path's ranks come out
  /// ascending, exactly as a plain walk plus reverse would leave them.
  void CollectAndMine(const TsPrefixTree& tree, size_t rank,
                      const TimestampList& ts_beta, Itemset* suffix) {
    constexpr uint32_t kNoParent = TsPrefixTree::kNoParent;
    Frame& frame = scratch_->FrameAt(depth_);
    frame.paths.clear();
    frame.rank_storage.clear();
    const uint32_t end = tree.RankEnd(rank);
    for (uint32_t first = tree.RankBegin(rank); first < end;
         first += kWalkLanes) {
      if (ShouldStop()) return;  // Abandoned mid-walk.
      const uint32_t lanes = std::min(kWalkLanes, end - first);
      // Only the first `lanes` entries are written and read. Zeroing the
      // array, or resetting separate at/len arrays, compiles to a memset
      // whose fixed cost doubled the walk on small conditional trees.
      struct Lane {
        uint32_t at;   ///< Next ancestor to load.
        uint32_t len;  ///< Ancestors counted so far.
      } lane[kWalkLanes];
      for (uint32_t l = 0; l < lanes; ++l) {
        lane[l] = {tree.LinkOf(first + l).parent, 0};
      }
      for (bool live = true; live;) {
        live = false;
        for (uint32_t l = 0; l < lanes; ++l) {
          if (lane[l].at == kNoParent) continue;
          ++lane[l].len;
          lane[l].at = tree.LinkOf(lane[l].at).parent;
          live = true;
        }
      }
      size_t total = 0;
      for (uint32_t l = 0; l < lanes; ++l) total += lane[l].len;
      size_t begin = frame.rank_storage.size();
      frame.rank_storage.resize(begin + total);
      for (uint32_t l = 0; l < lanes; ++l) {
        const uint32_t n = first + l;
        const uint32_t len = lane[l].len;
        const std::span<const Timestamp> ts = tree.ListOf(n);
        if (ts.empty() && len == 0) continue;
        uint32_t* out = frame.rank_storage.data() + begin + len;
        for (uint32_t a = tree.LinkOf(n).parent; a != kNoParent;
             a = tree.LinkOf(a).parent) {
          *--out = tree.LinkOf(a).rank;
        }
        frame.paths.push_back({static_cast<uint32_t>(begin), len, ts});
        begin += len;
      }
    }
    MineCollected(tree.items_by_rank(), frame, ts_beta, tree.ItemAtRank(rank),
                  suffix);
  }

  /// Tail of CollectAndMine: the fused gate + getRecurrence (Algorithm 5)
  /// and the conditional recursion for suffix item `item`. `frame` is this
  /// depth's frame holding the conditional pattern base; `ts_beta` is its
  /// merged, nonempty TS^beta.
  void MineCollected(const std::vector<ItemId>& items_by_rank, Frame& frame,
                     const TimestampList& ts_beta, ItemId item,
                     Itemset* suffix) {
    if (ShouldStop()) return;
    ++result_->stats.patterns_examined;

    // One scan decides the gate AND yields IPI^beta for getRecurrence —
    // previously the Erec gate scanned ts_beta and FindInterestingIntervals
    // rescanned every surviving list. A handed-down TS^beta always passes
    // (its parent kept it on the same bound); the scan still yields the
    // intervals.
    bool gate_passed;
    if (options_.pruning == PruningMode::kSupportOnly) {
      gate_passed = ts_beta.size() >= min_support_;
      if (gate_passed) {
        FindInterestingIntervalsInto(ts_beta, params_, &frame.intervals);
      }
    } else {
      gate_passed = ComputeGateAndIntervals(ts_beta, params_,
                                            &frame.intervals,
                                            &scratch_->gate_masks,
                                            &scratch_->gate)
                        .passes;
    }
    if (!gate_passed) return;

    suffix->push_back(item);

    // getRecurrence (Algorithm 5): is beta itself recurring?
    if (frame.intervals.size() >= params_.min_rec) {
      RecurringPattern pattern;
      pattern.items = *suffix;
      std::sort(pattern.items.begin(), pattern.items.end());
      pattern.support = ts_beta.size();
      pattern.intervals.assign(frame.intervals.begin(),
                               frame.intervals.end());
      ++result_->stats.patterns_emitted;
      ++subproblem_emitted_;
      // Past the cap headroom this subproblem is dropped no matter what
      // else it finds — stop paying for it.
      if (subproblem_emitted_ > cap_headroom_) overflowed_ = true;
      if (options_.sink) options_.sink(pattern);
      if (options_.store_patterns) {
        result_->patterns.push_back(std::move(pattern));
      }
    }

    const bool depth_ok = options_.max_pattern_length == 0 ||
                          suffix->size() < options_.max_pattern_length;
    if (depth_ok && !overflowed_) {
      BuildConditionalAndRecurse(items_by_rank, frame, ts_beta, suffix);
    }
    suffix->pop_back();
  }

  /// Replaces a multi-run path's ts-list with a sorted one, merged at
  /// `*cursor` in the frame's sorted_paths slab, so the path adds one run
  /// per rank on it and enters the conditional tree as one run. A list
  /// that is already one run stays in place.
  void SortPath(Frame& frame, PathRef& pr, Timestamp** cursor) {
    frame.path_runs.clear();
    AppendSortedRuns(pr.ts, &frame.path_runs);
    if (frame.path_runs.size() == 1) return;
    Timestamp* const end =
        MergeSortedRunsInto(frame.path_runs.data(), frame.path_runs.size(),
                            *cursor, &scratch_->merge, &scratch_->counters);
    pr.ts = {*cursor, end};
    *cursor = end;
  }

  void BuildConditionalAndRecurse(const std::vector<ItemId>& items_by_rank,
                                  Frame& frame, const TimestampList& ts_beta,
                                  Itemset* suffix) {
    if (ShouldStop()) return;
    const size_t nranks = items_by_rank.size();
    if (frame.support.size() < nranks) frame.support.resize(nranks, 0);
    if (frame.acc.size() < nranks) frame.acc.resize(nranks);
    if (frame.runs_by_rank.size() < nranks) frame.runs_by_rank.resize(nranks);

    // Count first. The paths partition TS^beta, so |TS^{beta+i}| is the
    // summed length of the paths through i, sorted or not. A list shorter
    // than MinSupport fails the gate whatever its order (Erec <=
    // floor(|TS| / minPS) < minRec), so its rank is counted as pruned and
    // dropped from `touched` (its count reset to 0) before any path is
    // sorted or any run mapped.
    frame.touched.clear();
    PathRef* lone = nullptr;
    size_t with_ts = 0;
    for (PathRef& pr : frame.paths) {
      if (pr.ts.empty()) continue;
      lone = &pr;
      ++with_ts;
      const uint32_t* path_ranks = frame.rank_storage.data() + pr.ranks_begin;
      for (uint32_t k = 0; k < pr.ranks_len; ++k) {
        const uint32_t r = path_ranks[k];
        if (frame.support[r] == 0) frame.touched.push_back(r);
        frame.support[r] += pr.ts.size();
      }
    }
    std::erase_if(frame.touched, [&](uint32_t r) {
      if (frame.support[r] >= min_support_) return false;
      ++result_->stats.support_pruned;
      frame.support[r] = 0;
      return true;
    });
    if (frame.touched.empty()) return;

    // Sort only the paths through a counted rank, and map each sorted
    // ts-list onto those ranks of its path ("temporary array, one for each
    // item" in Sec. 4.2.3) as one run descriptor, so runs_by_rank[r]
    // describes TS^{beta + item_at_rank_r}. The paths' sorted lists
    // partition TS^beta: a lone path's is `ts_beta` itself, and the others
    // fit in a slab of |TS^beta| timestamps, whose fill is paid once per
    // frame because it only grows.
    if (with_ts == 1) {
      RPM_DCHECK(lone->ts.size() == ts_beta.size());
      lone->ts = ts_beta;
    } else if (frame.sorted_paths.size() < ts_beta.size()) {
      frame.sorted_paths.resize(ts_beta.size());
    }
    Timestamp* cursor = frame.sorted_paths.data();
    for (PathRef& pr : frame.paths) {
      if (pr.ts.empty()) continue;
      const uint32_t* path_ranks = frame.rank_storage.data() + pr.ranks_begin;
      const uint32_t* const path_end = path_ranks + pr.ranks_len;
      if (std::none_of(path_ranks, path_end,
                       [&](uint32_t r) { return frame.support[r] != 0; })) {
        continue;
      }
      if (with_ts != 1) SortPath(frame, pr, &cursor);
      for (const uint32_t* r = path_ranks; r != path_end; ++r) {
        if (frame.support[*r] != 0) {
          frame.runs_by_rank[*r].push_back({pr.ts.data(), pr.ts.size()});
        }
      }
    }

    // Merge each counted TS^{beta+i} and keep it if it can still extend
    // beta (conditional Erec gate). Every touched entry's count and runs
    // are cleared, on a stop too — the grow-only scratch invariant
    // ("support[r] == 0 and runs_by_rank[r] empty between subproblems")
    // must hold for whatever this worker mines next.
    frame.kept.clear();
    bool stopped = false;
    for (uint32_t r : frame.touched) {
      std::vector<TsRun>& runs = frame.runs_by_rank[r];
      if (!stopped) {
        stopped = ShouldStop();
        if (!stopped) {
          MergeSortedRuns(runs.data(), runs.size(), &frame.acc[r],
                          &scratch_->merge, &scratch_->counters);
          if (PassesGate(frame.acc[r])) frame.kept.push_back(r);
        }
      }
      frame.support[r] = 0;
      runs.clear();
    }
    if (stopped || frame.kept.empty()) {
      for (uint32_t r : frame.touched) frame.acc[r].clear();
      return;
    }

    // Conditional item order: support-descending, ties by parent order.
    std::sort(frame.kept.begin(), frame.kept.end(),
              [&frame](uint32_t a, uint32_t b) {
                return frame.acc[a].size() != frame.acc[b].size()
                           ? frame.acc[a].size() > frame.acc[b].size()
                           : a < b;
              });
    frame.new_rank_of.assign(nranks, kNotCandidate);
    std::vector<ItemId> cond_items_by_rank(frame.kept.size());
    for (uint32_t nr = 0; nr < frame.kept.size(); ++nr) {
      frame.new_rank_of[frame.kept[nr]] = nr;
      cond_items_by_rank[nr] = items_by_rank[frame.kept[nr]];
    }

    TsPrefixTree::Builder builder(std::move(cond_items_by_rank));
    for (const PathRef& pr : frame.paths) {
      frame.mapped.clear();
      const uint32_t* path_ranks = frame.rank_storage.data() + pr.ranks_begin;
      for (uint32_t k = 0; k < pr.ranks_len; ++k) {
        const uint32_t nr = frame.new_rank_of[path_ranks[k]];
        if (nr != kNotCandidate) frame.mapped.push_back(nr);
      }
      if (frame.mapped.empty()) continue;
      std::sort(frame.mapped.begin(), frame.mapped.end());
      builder.InsertPath(frame.mapped, pr.ts);
    }
    const TsPrefixTree cond = std::move(builder).Seal();
    ++result_->stats.conditional_trees;
    QueryBudget* budget = checkpoint_.budget();
    const size_t cond_bytes = budget != nullptr ? cond.ApproxBytes() : 0;
    if (budget != nullptr) {
      budget->AddNodes(cond.NodeCount());
      budget->AddTrackedBytes(cond_bytes);  // May trip the memory stop.
    }
    if (!cond.empty()) {
      ++depth_;
      MineTree(cond, frame, suffix);
      --depth_;
    }
    if (budget != nullptr) budget->ReleaseTrackedBytes(cond_bytes);
    // The kept accumulators were the child's TS^beta lists; release their
    // contents so the slabs only pin their high-water capacity.
    for (uint32_t r : frame.touched) frame.acc[r].clear();
  }

  const RpParams& params_;
  const RpGrowthOptions& options_;
  RpGrowthResult* result_;
  MinerScratch* scratch_;
  const uint64_t min_support_;  ///< MinSupport(params_): the count rule.
  BudgetCheckpointer checkpoint_;
  size_t depth_ = 0;  ///< Current recursion depth == frame index.
  // Per-subproblem governance state (reset by BeginSubproblem):
  bool aborted_ = false;     ///< A hard budget stop fired.
  bool overflowed_ = false;  ///< Emitted past the cap headroom.
  uint64_t subproblem_emitted_ = 0;
  uint64_t cap_headroom_ = std::numeric_limits<uint64_t>::max();
};

/// Folds a scratch pool's kernel counters into the run's stats.
/// scratch_bytes_peak takes the max (pools are per worker, so the peak is
/// the largest single pool); scratch_bytes_total sums the pools, which is
/// the figure comparable across thread counts.
void FoldScratchStats(const MinerScratch& scratch, RpGrowthStats* stats) {
  stats->merge_invocations += scratch.counters.merge_invocations;
  stats->runs_merged += scratch.counters.runs_merged;
  stats->timestamps_merged += scratch.counters.timestamps_merged;
  stats->gate_lists_scanned += scratch.gate.lists_scanned;
  stats->gate_gaps_scanned += scratch.gate.gaps_scanned;
  const size_t bytes = scratch.ByteFootprint();
  stats->scratch_bytes_total += bytes;
  stats->scratch_bytes_peak = std::max(stats->scratch_bytes_peak, bytes);
}

/// Sequential top-level loop (Algorithm 4's outer loop) with per-
/// subproblem commit/rollback: a subproblem the budget hard-stops — or
/// that would push the committed total past the max-patterns cap — is
/// rolled out of the result wholesale and mining ends, so the result is
/// always the complete patterns of a contiguous bottom-up prefix of
/// suffix subproblems. Without a budget this degenerates to the plain
/// loop (headroom infinite, checkpoints a single branch). A rank whose
/// |TS^item| is below MinSupport is skipped unwalked, as the count rule
/// skips a TS^{beta+i}; only a tree built at looser params has one.
void MineSequentialTopLevel(const TsPrefixTree& tree, const RpParams& params,
                            Miner* miner, QueryBudget* budget,
                            RpGrowthResult* result) {
  const uint64_t cap = budget != nullptr ? budget->limits().max_patterns : 0;
  const uint64_t min_support = MinSupport(params);
  uint64_t committed = 0;
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    const size_t support = tree.RankList(rank).size();
    if (support == 0) continue;
    if (support < min_support) {
      ++result->stats.support_pruned;
      continue;
    }
    const size_t patterns_mark = result->patterns.size();
    const size_t emitted_mark = result->stats.patterns_emitted;
    const uint64_t headroom =
        cap == 0 ? std::numeric_limits<uint64_t>::max() : cap - committed;
    const Miner::Outcome outcome =
        miner->MineTopRank(tree, rank, headroom);
    if (outcome == Miner::Outcome::kComplete) {
      committed += miner->subproblem_emitted();
      continue;
    }
    // Drop the subproblem: roll its patterns out of the result. The
    // exploration counters intentionally keep the attempted work.
    result->patterns.resize(patterns_mark);
    result->stats.patterns_emitted = emitted_mark;
    result->truncated = true;
    if (outcome == Miner::Outcome::kOverflow && budget != nullptr) {
      budget->RequestStop(StopReason::kPatternCap);
    }
    break;
  }
  if (budget != nullptr) budget->AddPatterns(committed);
}

/// Parallel mining phase: workers take the tree's suffix ranks directly
/// and mine them with per-rank results, then commit. Counters sum to
/// exactly the sequential values because every subproblem is counted once,
/// on whichever worker runs it. Workers share the sealed tree read-only.
///
/// Budget governance commits the longest prefix (in bottom-up,
/// descending-rank order) of subproblems that completed and fit under the
/// max-patterns cap; everything at and after the first incomplete or
/// cap-crossing subproblem is dropped, including completed-but-later
/// subproblems, so a max_patterns cut lands on the identical subproblem
/// the sequential path cuts at.
void MineParallel(const TsPrefixTree& tree, const RpParams& params,
                  const RpGrowthOptions& options, size_t threads,
                  RpGrowthResult* result) {
  // Subproblems: every rank holding at least MinSupport timestamps,
  // bottom-up (the sequential loop's skip rule). A rank's weight is
  // |TS^item|.
  const uint64_t min_support = MinSupport(params);
  std::vector<uint32_t> ranks;
  std::vector<size_t> weight;
  for (size_t rank = tree.num_ranks(); rank-- > 0;) {
    const size_t w = tree.RankList(rank).size();
    if (w == 0) continue;
    if (w < min_support) {
      ++result->stats.support_pruned;
      continue;
    }
    ranks.push_back(static_cast<uint32_t>(rank));
    weight.push_back(w);
  }

  // Heaviest subproblems first (LPT scheduling): with dynamic work
  // pulling this bounds the makespan tail by the single largest
  // subproblem. Ties keep bottom-up order, so the schedule is
  // deterministic.
  std::vector<size_t> order(ranks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weight[a] > weight[b];
  });

  // Workers share one serialized sink; discovery order across workers is
  // nondeterministic, but calls never overlap.
  RpGrowthOptions worker_options = options;
  std::mutex sink_mutex;
  if (options.sink) {
    worker_options.sink = [&](const RecurringPattern& pattern) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      options.sink(pattern);
    };
  }

  QueryBudget* budget = options.budget;
  const uint64_t cap = budget != nullptr ? budget->limits().max_patterns : 0;
  // A worker cannot know the committed total while mining out of order,
  // but a subproblem whose own count exceeds the whole cap is doomed
  // regardless of it — that is the only early-abort the cap allows
  // without perturbing the deterministic cut.
  const uint64_t worker_headroom =
      cap == 0 ? std::numeric_limits<uint64_t>::max() : cap;

  /// Per-subproblem (not per-worker) result so the commit walk below can
  /// keep the exact bottom-up prefix of completed subproblems.
  struct Subproblem {
    RpGrowthResult local;
    Miner::Outcome outcome = Miner::Outcome::kHardStop;  // = not dispatched.
    uint64_t emitted = 0;
  };
  std::vector<Subproblem> subs(ranks.size());

  const size_t workers = std::min(threads, ranks.size());
  std::vector<MinerScratch> scratches(std::max<size_t>(workers, 1));
  std::vector<double> busy_seconds(scratches.size(), 0.0);
  std::function<bool()> should_stop;
  if (budget != nullptr) {
    should_stop = [budget] { return budget->stop_requested(); };
  }
  const size_t participants = ParallelFor(
      ranks.size(), workers,
      [&](size_t worker, size_t i) {
        if (FailpointTriggered("worker.task")) {
          throw std::runtime_error("injected worker-task fault");
        }
        Stopwatch stopwatch;
        Subproblem& sub = subs[order[i]];
        Miner miner(params, worker_options, &sub.local, &scratches[worker]);
        sub.outcome =
            miner.MineTopRank(tree, ranks[order[i]], worker_headroom);
        sub.emitted = miner.subproblem_emitted();
        busy_seconds[worker] += stopwatch.ElapsedSeconds();
      },
      should_stop);

  // Commit walk: keep subproblems in bottom-up order until the first one
  // that is incomplete or would cross the max-patterns cap.
  uint64_t committed = 0;
  size_t cut = subs.size();
  bool cap_cut = false;
  for (size_t p = 0; p < subs.size(); ++p) {
    const Subproblem& sub = subs[p];
    if (sub.outcome == Miner::Outcome::kHardStop) {
      cut = p;
      break;
    }
    if (sub.outcome == Miner::Outcome::kOverflow ||
        (cap != 0 && committed + sub.emitted > cap)) {
      cut = p;
      cap_cut = true;
      break;
    }
    committed += sub.emitted;
  }
  for (size_t p = 0; p < cut; ++p) {
    result->stats.patterns_emitted += subs[p].local.stats.patterns_emitted;
    result->patterns.insert(
        result->patterns.end(),
        std::make_move_iterator(subs[p].local.patterns.begin()),
        std::make_move_iterator(subs[p].local.patterns.end()));
  }
  if (cut < subs.size()) {
    result->truncated = true;
    if (cap_cut && budget != nullptr && !budget->hard_stopped()) {
      budget->RequestStop(StopReason::kPatternCap);
    }
  }
  // Exploration counters keep every attempted subproblem, committed or
  // dropped — they account work done, not results kept.
  for (const Subproblem& sub : subs) {
    result->stats.conditional_trees += sub.local.stats.conditional_trees;
    result->stats.patterns_examined += sub.local.stats.patterns_examined;
    result->stats.support_pruned += sub.local.stats.support_pruned;
  }
  for (size_t w = 0; w < scratches.size(); ++w) {
    result->stats.mine_cpu_seconds += busy_seconds[w];
    FoldScratchStats(scratches[w], &result->stats);
  }
  if (budget != nullptr) budget->AddPatterns(committed);
  result->stats.threads_used = std::max<size_t>(participants, size_t{1});
}

}  // namespace

PreparedMining PrepareMining(const TransactionDatabase& db,
                             const RpParams& params, PruningMode pruning,
                             QueryBudget* budget) {
  RPM_CHECK(params.Validate().ok()) << params.ToString();
  PreparedMining prepared;
  prepared.params = params;
  prepared.pruning = pruning;

  // Pass 1: RP-list (Algorithm 1).
  Stopwatch phase;
  prepared.list = BuildRpList(db, params, budget);
  prepared.num_items = prepared.list.entries().size();
  prepared.list_seconds = phase.ElapsedSeconds();
  if (budget != nullptr && budget->hard_stopped()) {
    return prepared;  // Aborted mid-scan; the caller must discard.
  }

  // Candidate item order per pruning mode.
  if (pruning == PruningMode::kErec) {
    prepared.items_by_rank.reserve(prepared.list.candidates().size());
    for (const RpListEntry& e : prepared.list.candidates()) {
      prepared.items_by_rank.push_back(e.item);
    }
  } else {
    std::vector<RpListEntry> entries = prepared.list.entries();
    const uint64_t min_support = MinSupport(params);
    std::erase_if(entries, [&](const RpListEntry& e) {
      return e.support < min_support;
    });
    std::sort(entries.begin(), entries.end(),
              [](const RpListEntry& a, const RpListEntry& b) {
                return a.support != b.support ? a.support > b.support
                                              : a.item < b.item;
              });
    prepared.items_by_rank.reserve(entries.size());
    for (const RpListEntry& e : entries) {
      prepared.items_by_rank.push_back(e.item);
    }
  }
  prepared.num_candidate_items = prepared.items_by_rank.size();

  // Pass 2: RP-tree (Algorithms 2-3).
  phase.Restart();
  prepared.tree = BuildRankedTree(db, prepared.items_by_rank, budget);
  prepared.initial_tree_nodes = prepared.tree.NodeCount();
  prepared.tree_seconds = phase.ElapsedSeconds();
  return prepared;
}

TsPrefixTree BuildRankedTree(const TransactionDatabase& db,
                             const std::vector<ItemId>& items_by_rank,
                             QueryBudget* budget, size_t /*ignored_threads*/) {
  std::vector<uint32_t> rank_of(db.ItemUniverseSize(), kNotCandidate);
  for (uint32_t rank = 0; rank < items_by_rank.size(); ++rank) {
    RPM_CHECK(items_by_rank[rank] < rank_of.size() &&
              rank_of[items_by_rank[rank]] == kNotCandidate)
        << "invalid candidate order";
    rank_of[items_by_rank[rank]] = rank;
  }
  TsPrefixTree::Builder builder(items_by_rank);
  BudgetCheckpointer checkpoint(budget);
  size_t reported_bytes = 0;
  std::vector<uint32_t> ranks;
  size_t inserted = 0;
  for (const Transaction& tr : db.transactions()) {
    if (checkpoint.Check()) break;  // Partial build; the caller discards.
    ++inserted;
    ranks.clear();
    for (ItemId item : tr.items) {
      if (rank_of[item] != kNotCandidate) ranks.push_back(rank_of[item]);
    }
    std::sort(ranks.begin(), ranks.end());
    builder.InsertTransaction(ranks, tr.ts);
    if (budget != nullptr) {
      const size_t now = builder.ApproxBytes();
      if (now > reported_bytes) {
        budget->AddTrackedBytes(now - reported_bytes);  // May trip memory.
        reported_bytes = now;
      }
    }
  }
  // Net the build-time accounting back out (the peak was captured); the
  // caller re-tracks the finished tree for its mining phase.
  if (budget != nullptr) budget->ReleaseTrackedBytes(reported_bytes);
  TsPrefixTree tree = std::move(builder).Seal();
  // Second projection pass, after the builder's buffers are freed, so the
  // rank lists never coexist with them.
  tree.FillRankLists(std::span(db.transactions()).first(inserted), rank_of);
  return tree;
}

RpGrowthResult MineFromPrepared(const PreparedMining& prepared,
                                const TsPrefixTree& tree,
                                const RpParams& params,
                                const RpGrowthOptions& options) {
  RPM_CHECK(params.Validate().ok()) << params.ToString();
  RPM_CHECK(params.period == prepared.params.period &&
            params.max_gap_violations == prepared.params.max_gap_violations &&
            params.min_ps >= prepared.params.min_ps &&
            params.min_rec >= prepared.params.min_rec &&
            options.pruning == prepared.pruning)
      << "query params looser than the prepared build: " << params.ToString()
      << " vs " << prepared.params.ToString();
  RPM_CHECK(tree.has_rank_lists()) << "tree was not built by BuildRankedTree";
  RpGrowthResult result;
  Stopwatch total;
  result.stats.num_items = prepared.num_items;
  result.stats.num_candidate_items = prepared.num_candidate_items;
  result.stats.initial_tree_nodes = prepared.initial_tree_nodes;
  result.stats.list_seconds = prepared.list_seconds;
  result.stats.tree_seconds = prepared.tree_seconds;

  QueryBudget* budget = options.budget;
  const size_t tree_bytes = budget != nullptr ? tree.ApproxBytes() : 0;
  if (budget != nullptr) {
    budget->AddNodes(tree.NodeCount());
    budget->AddTrackedBytes(tree_bytes);  // May trip the memory stop.
  }

  // Bottom-up mining (Algorithm 4): sequentially on this thread, or with
  // suffix ranks spread over a worker pool.
  Stopwatch phase;
  const size_t threads = ResolveThreadCount(options.num_threads);
  if (threads <= 1) {
    MinerScratch scratch;
    Miner miner(params, options, &result, &scratch);
    MineSequentialTopLevel(tree, params, &miner, budget, &result);
    FoldScratchStats(scratch, &result.stats);
    result.stats.mine_seconds = phase.ElapsedSeconds();
    result.stats.mine_cpu_seconds = result.stats.mine_seconds;
    result.stats.threads_used = 1;
  } else {
    MineParallel(tree, params, options, threads, &result);
    result.stats.mine_seconds = phase.ElapsedSeconds();
  }

  if (budget != nullptr) {
    budget->ReleaseTrackedBytes(tree_bytes);
    result.status = budget->status();
  }
  SortPatternsCanonically(&result.patterns);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

RpGrowthResult MineRecurringPatterns(const TransactionDatabase& db,
                                     const RpParams& params,
                                     const RpGrowthOptions& options) {
  Stopwatch total;
  PreparedMining prepared =
      PrepareMining(db, params, options.pruning, options.budget);
  if (options.budget != nullptr && options.budget->hard_stopped()) {
    // The build itself was stopped; a partial tree must never be mined
    // (its ts-lists are incomplete, not a subproblem prefix).
    RpGrowthResult result;
    result.stats.num_items = prepared.num_items;
    result.stats.num_candidate_items = prepared.num_candidate_items;
    result.stats.initial_tree_nodes = prepared.initial_tree_nodes;
    result.stats.list_seconds = prepared.list_seconds;
    result.stats.tree_seconds = prepared.tree_seconds;
    result.status = options.budget->status();
    result.truncated = true;
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  }
  RpGrowthResult result =
      MineFromPrepared(prepared, prepared.tree, params, options);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace rpm
