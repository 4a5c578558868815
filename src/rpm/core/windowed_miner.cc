#include "rpm/core/windowed_miner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "rpm/common/logging.h"
#include "rpm/common/stopwatch.h"
#include "rpm/core/time_gap.h"

namespace rpm {

namespace {

/// Canonical result order (pattern.cc): itemsets lexicographically.
bool LessItems(const RecurringPattern& a, const RecurringPattern& b) {
  return std::lexicographical_compare(a.items.begin(), a.items.end(),
                                      b.items.begin(), b.items.end());
}

/// True iff the sorted sets share at least one element.
bool IntersectsSorted(const Itemset& items, const std::vector<ItemId>& set) {
  auto i = items.begin();
  auto s = set.begin();
  while (i != items.end() && s != set.end()) {
    if (*i < *s) {
      ++i;
    } else if (*s < *i) {
      ++s;
    } else {
      return true;
    }
  }
  return false;
}

/// The verdict a refused delta reports. A budget that stopped for the
/// soft pattern-cap reason still refuses — a capped sub-mine would make
/// the committed set wrong — but needs a non-OK status to say so.
Status RefusalStatus(QueryBudget* budget) {
  Status s = budget != nullptr ? budget->status()
                               : Status::Cancelled("delta stopped");
  if (s.ok()) {
    s = Status::ResourceExhausted(
        "max-patterns cap tripped mid-delta; windowed mining requires "
        "uncapped sub-mines");
  }
  return s;
}

}  // namespace

WindowedMiner::WindowedMiner(const RpParams& params, Timestamp window,
                             const WindowedMinerOptions& options)
    : params_(params),
      window_(window),
      options_(options),
      columns_(params.period, params.min_ps),
      cutoff_(std::numeric_limits<Timestamp>::min()) {
  RPM_CHECK(params.Validate().ok());
  RPM_CHECK(params.max_gap_violations == 0);
  RPM_CHECK(window > 0);
  mining_stats_.threads_used = 1;
}

Status WindowedMiner::ValidateBatch(
    const std::vector<Transaction>& batch) const {
  Timestamp prev = now_;
  bool have_prev = any_delta_;
  for (const Transaction& tr : batch) {
    if (have_prev && tr.ts <= prev) {
      return Status::InvalidArgument(
          "delta timestamps must be strictly increasing and newer than "
          "the window: ts " +
          std::to_string(tr.ts) + " after " + std::to_string(prev));
    }
    have_prev = true;
    prev = tr.ts;
    for (size_t i = 0; i < tr.items.size(); ++i) {
      if (tr.items[i] == kInvalidItem) {
        return Status::InvalidArgument(
            "item id " + std::to_string(tr.items[i]) +
            " is the reserved invalid-item sentinel");
      }
      if (i > 0 && tr.items[i] <= tr.items[i - 1]) {
        return Status::InvalidArgument(
            "transaction items must be sorted ascending and "
            "duplicate-free (ts " +
            std::to_string(tr.ts) + ")");
      }
    }
  }
  return Status::OK();
}

PatternDelta WindowedMiner::ApplyDelta(const std::vector<Transaction>& batch,
                                       QueryBudget* budget) {
  PatternDelta d;
  Status vs = ValidateBatch(batch);
  if (!vs.ok()) {
    d.status = std::move(vs);
    return d;
  }
  if (batch.empty() && !any_delta_) {
    // No time base yet: nothing can expire and nothing arrives.
    d.applied = true;
    return d;
  }
  return ApplyDeltaInternal(batch, batch.empty() ? now_ : batch.back().ts,
                            budget);
}

PatternDelta WindowedMiner::AdvanceTo(Timestamp now, QueryBudget* budget) {
  if (any_delta_ && now < now_) {
    PatternDelta d;
    d.status = Status::InvalidArgument(
        "cannot advance the window backwards: now " + std::to_string(now) +
        " precedes " + std::to_string(now_));
    return d;
  }
  return ApplyDeltaInternal({}, now, budget);
}

PatternDelta WindowedMiner::ApplyDeltaInternal(
    const std::vector<Transaction>& batch, Timestamp now,
    QueryBudget* budget) {
  Stopwatch total;
  PatternDelta d;
  d.appended_transactions = batch.size();
  BudgetCheckpointer checkpoint(budget);
  const Timestamp new_cutoff = SaturatingWindowStart(now, window_);

  auto refuse = [&](Status s) {
    d.applied = false;
    d.status = std::move(s);
    d.maintain_seconds = total.ElapsedSeconds() - d.mine_seconds;
    return d;
  };

  // --- Read-only phases: nothing below mutates miner state until the
  // commit marker, so any refusal leaves the previous committed state.

  // A delta boundary is a natural coarse checkpoint: probe the budget
  // directly so an already-expired deadline or pre-cancelled token
  // refuses the delta up front — the per-unit Check() below only reaches
  // the clock and the token every kCheckpointStride steps, which a small
  // delta may never hit.
  if (budget != nullptr && budget->Probe()) {
    return refuse(RefusalStatus(budget));
  }

  // Affected items A: everything entering or leaving the window.
  std::vector<ItemId> affected;
  size_t expire_end = head_;
  while (expire_end < txns_.size() && txns_[expire_end].ts < new_cutoff) {
    const Transaction& tr = txns_[expire_end];
    affected.insert(affected.end(), tr.items.begin(), tr.items.end());
    ++expire_end;
    if (checkpoint.Check()) return refuse(RefusalStatus(budget));
  }
  d.expired_transactions = expire_end - head_;
  for (const Transaction& tr : batch) {
    affected.insert(affected.end(), tr.items.begin(), tr.items.end());
    // A batch spanning more than the window expires its own prefix.
    if (tr.ts < new_cutoff) ++d.expired_transactions;
    if (checkpoint.Check()) return refuse(RefusalStatus(budget));
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  d.affected_items = affected.size();

  std::vector<RecurringPattern> mined_a;
  TsPrefixTree::RetireStats retire;
  if (!affected.empty()) {
    // TS(D_A): union of the A-items' live columns (one sorted run each —
    // the PR 2 kernel's natural input) plus the batch as one more run.
    // Columns still hold this delta's expiring events; they are wanted
    // here so the per-delta tree exercises the lazy-retirement path.
    std::vector<TsRun> runs;
    runs.reserve(affected.size() + 1);
    for (ItemId a : affected) {
      TsRun r = columns_.LiveTimestamps(a);
      if (r.size > 0) runs.push_back(r);
    }
    TimestampList batch_ts;
    batch_ts.reserve(batch.size());
    for (const Transaction& tr : batch) batch_ts.push_back(tr.ts);
    if (!batch_ts.empty()) runs.push_back({batch_ts.data(), batch_ts.size()});
    TimestampList union_ts;
    MergeCounters assembly;
    MergeSortedRuns(runs.data(), runs.size(), &union_ts, &scratch_,
                    &assembly);
    if (checkpoint.Check()) return refuse(RefusalStatus(budget));

    // D_A itself: every union timestamp is the ts of exactly one live
    // window transaction or one batch transaction, and window timestamps
    // all precede batch timestamps.
    std::vector<Transaction> sub;
    size_t wi = head_;
    size_t bi = 0;
    Timestamp prev_ts = 0;
    bool first = true;
    for (Timestamp ts : union_ts) {
      if (!first && ts == prev_ts) continue;  // Shared by several items.
      first = false;
      prev_ts = ts;
      while (wi < txns_.size() && txns_[wi].ts < ts) ++wi;
      if (wi < txns_.size() && txns_[wi].ts == ts) {
        sub.push_back(txns_[wi]);
      } else {
        while (bi < batch.size() && batch[bi].ts < ts) ++bi;
        RPM_DCHECK(bi < batch.size() && batch[bi].ts == ts);
        sub.push_back(batch[bi]);
      }
      if (checkpoint.Check()) return refuse(RefusalStatus(budget));
    }
    d.subproblem_transactions = sub.size();

    // Sub-mine. The tree is built over pre-expiry D_A and then lazily
    // retired to the new cutoff: Erec is monotone non-decreasing under
    // timestamp insertion, so the pre-expiry candidate scan is a
    // superset build and mining the retired tree yields exactly the
    // post-expiry pattern set (the same loose→strict argument the query
    // planner's tree reuse rests on).
    Stopwatch mine_clock;
    TransactionDatabase sub_db{std::move(sub)};
    PreparedMining prep =
        PrepareMining(sub_db, params_, PruningMode::kErec, budget);
    if (budget != nullptr && budget->hard_stopped()) {
      d.mine_seconds = mine_clock.ElapsedSeconds();
      return refuse(RefusalStatus(budget));
    }
    retire = prep.tree.RetireBefore(new_cutoff);
    RpGrowthOptions mopt;
    mopt.max_pattern_length = options_.max_pattern_length;
    mopt.num_threads = 1;
    mopt.budget = budget;
    RpGrowthResult mined =
        MineFromPrepared(prep, prep.tree, params_, mopt);
    d.mine_seconds = mine_clock.ElapsedSeconds();
    if (!mined.status.ok()) return refuse(mined.status);
    if (mined.truncated) return refuse(RefusalStatus(budget));

    FoldMiningStats(mined.stats);
    mining_stats_.merge_invocations += assembly.merge_invocations;
    mining_stats_.runs_merged += assembly.runs_merged;
    mining_stats_.timestamps_merged += assembly.timestamps_merged;

    // Only A-intersecting patterns carry exact window-wide measures in
    // D_A; the rest are unchanged and carried from the committed set.
    mined_a.reserve(mined.patterns.size());
    for (RecurringPattern& p : mined.patterns) {
      if (IntersectsSorted(p.items, affected)) {
        mined_a.push_back(std::move(p));
      }
    }
  }

  // Diff against the committed set and build its successor. Both inputs
  // are in canonical order; one synchronized walk produces the diff and
  // the merged new set.
  std::vector<RecurringPattern> new_patterns;
  new_patterns.reserve(patterns_.size() + mined_a.size());
  size_t i = 0;
  size_t j = 0;
  while (i < patterns_.size() || j < mined_a.size()) {
    if (j == mined_a.size() ||
        (i < patterns_.size() && LessItems(patterns_[i], mined_a[j]))) {
      if (IntersectsSorted(patterns_[i].items, affected)) {
        d.removed.push_back(patterns_[i]);  // No longer recurring.
      } else {
        new_patterns.push_back(std::move(patterns_[i]));  // Carried.
      }
      ++i;
    } else if (i == patterns_.size() ||
               LessItems(mined_a[j], patterns_[i])) {
      d.added.push_back(mined_a[j]);
      new_patterns.push_back(std::move(mined_a[j]));
      ++j;
    } else {
      if (patterns_[i] != mined_a[j]) d.changed.push_back(mined_a[j]);
      new_patterns.push_back(std::move(mined_a[j]));
      ++i;
      ++j;
    }
  }

  // --- Commit. No refusal below this line: the delta either refused
  // above with state untouched, or lands here in full.
  for (const Transaction& tr : batch) {
    for (ItemId item : tr.items) {
      Status s = columns_.Append(item, tr.ts);
      RPM_CHECK(s.ok());
    }
    txns_.push_back(tr);
  }
  columns_.ExpireBefore(new_cutoff, affected);
  // The dead region of the deque is a contiguous prefix: a batch
  // transaction below the cutoff implies every older live one is too.
  size_t new_head = expire_end;
  while (new_head < txns_.size() && txns_[new_head].ts < new_cutoff) {
    ++new_head;
  }
  head_ = new_head;
  cutoff_ = new_cutoff;
  now_ = now;
  any_delta_ = true;
  patterns_ = std::move(new_patterns);

  ++counters_.deltas_applied;
  counters_.timestamps_appended = columns_.counters().timestamps_appended;
  counters_.timestamps_retired = columns_.counters().timestamps_retired;
  counters_.runs_retired = columns_.counters().runs_retired;
  counters_.transactions_expired += d.expired_transactions;
  counters_.nodes_retired += retire.nodes_retired;
  counters_.affected_items += d.affected_items;
  counters_.subproblem_transactions += d.subproblem_transactions;

  // Reclamation after commit: a budget trip inside leaves tombstones for
  // the next sweep but never touches results.
  MaybeCompact(checkpoint);

  d.applied = true;
  d.status = Status::OK();
  d.maintain_seconds = total.ElapsedSeconds() - d.mine_seconds;
  return d;
}

void WindowedMiner::MaybeCompact(BudgetCheckpointer& checkpoint) {
  if (options_.compact_live_fraction <= 0.0) return;
  const size_t stored = columns_.stored_timestamp_count() + txns_.size();
  if (stored < options_.compact_min_stored) return;
  const size_t live =
      columns_.live_timestamp_count() + (txns_.size() - head_);
  if (live == stored) return;
  if (static_cast<double>(live) >=
      options_.compact_live_fraction * static_cast<double>(stored)) {
    return;
  }
  // Counted at the decision, which depends only on the data and delta
  // schedule — a budget trip below abandons reclamation, not accounting.
  ++counters_.compactions;
  if (checkpoint.Check()) return;
  columns_.Compact();
  if (checkpoint.Check()) return;
  txns_.erase(txns_.begin(), txns_.begin() + static_cast<ptrdiff_t>(head_));
  head_ = 0;
}

void WindowedMiner::FoldMiningStats(const RpGrowthStats& s) {
  mining_stats_.num_items = s.num_items;
  mining_stats_.num_candidate_items = s.num_candidate_items;
  mining_stats_.initial_tree_nodes += s.initial_tree_nodes;
  mining_stats_.conditional_trees += s.conditional_trees;
  mining_stats_.patterns_examined += s.patterns_examined;
  mining_stats_.patterns_emitted += s.patterns_emitted;
  mining_stats_.merge_invocations += s.merge_invocations;
  mining_stats_.runs_merged += s.runs_merged;
  mining_stats_.timestamps_merged += s.timestamps_merged;
  mining_stats_.gate_lists_scanned += s.gate_lists_scanned;
  mining_stats_.gate_gaps_scanned += s.gate_gaps_scanned;
  mining_stats_.support_pruned += s.support_pruned;
  mining_stats_.scratch_bytes_peak =
      std::max(mining_stats_.scratch_bytes_peak, s.scratch_bytes_peak);
  mining_stats_.scratch_bytes_total =
      std::max(mining_stats_.scratch_bytes_total, s.scratch_bytes_total);
  mining_stats_.list_seconds += s.list_seconds;
  mining_stats_.tree_seconds += s.tree_seconds;
  mining_stats_.mine_seconds += s.mine_seconds;
  mining_stats_.mine_cpu_seconds += s.mine_cpu_seconds;
  mining_stats_.total_seconds += s.total_seconds;
}

TransactionDatabase WindowedMiner::WindowSnapshot() const {
  std::vector<Transaction> live(txns_.begin() + static_cast<ptrdiff_t>(head_),
                                txns_.end());
  return TransactionDatabase(std::move(live));
}

}  // namespace rpm
