#include "rpm/verify/cross_check.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "rpm/core/brute_force.h"
#include "rpm/core/measures.h"
#include "rpm/core/time_gap.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/windowed_miner.h"
#include "rpm/core/windowed_rp_list.h"
#include "rpm/engine/session.h"

namespace rpm::verify {

namespace {

std::string ItemsetToString(const Itemset& items) {
  std::string s = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += ' ';
    s += std::to_string(items[i]);
  }
  s += '}';
  return s;
}

std::string IntervalsToString(const std::vector<PeriodicInterval>& ivs) {
  std::string s = "[";
  for (size_t i = 0; i < ivs.size(); ++i) {
    if (i > 0) s += ' ';
    s += '[';
    s += std::to_string(ivs[i].begin);
    s += ',';
    s += std::to_string(ivs[i].end);
    s += "]:";
    s += std::to_string(ivs[i].periodic_support);
  }
  s += ']';
  return s;
}

/// Collects divergences for one check, enforcing the per-check cap.
class Collector {
 public:
  Collector(std::string check, size_t cap, std::vector<Divergence>* out)
      : check_(std::move(check)), cap_(cap), out_(out) {}

  void Add(std::string detail) {
    ++count_;
    if (cap_ == 0 || count_ <= cap_) {
      out_->push_back({check_, std::move(detail)});
    }
  }

  ~Collector() {
    if (cap_ != 0 && count_ > cap_) {
      out_->push_back({check_, "... and " + std::to_string(count_ - cap_) +
                                   " further divergence(s) elided"});
    }
  }

 private:
  std::string check_;
  size_t cap_;
  size_t count_ = 0;
  std::vector<Divergence>* out_;
};

/// Merge-walks two canonically sorted pattern sets and reports every
/// missing, extra, or value-mismatched pattern. `got_name`/`want_name`
/// label the two sides in the rendered details.
void DiffPatternSets(std::vector<RecurringPattern> got,
                     std::vector<RecurringPattern> want,
                     const char* got_name, const char* want_name,
                     Collector* out) {
  SortPatternsCanonically(&got);
  SortPatternsCanonically(&want);
  size_t i = 0, j = 0;
  auto items_less = [](const RecurringPattern& a, const RecurringPattern& b) {
    return std::lexicographical_compare(a.items.begin(), a.items.end(),
                                        b.items.begin(), b.items.end());
  };
  while (i < got.size() || j < want.size()) {
    if (j == want.size() ||
        (i < got.size() && items_less(got[i], want[j]))) {
      out->Add("pattern " + ItemsetToString(got[i].items) + " emitted by " +
               got_name + " but not by " + want_name);
      ++i;
    } else if (i == got.size() || items_less(want[j], got[i])) {
      out->Add("pattern " + ItemsetToString(want[j].items) + " emitted by " +
               want_name + " but not by " + got_name);
      ++j;
    } else {
      const RecurringPattern& g = got[i];
      const RecurringPattern& w = want[j];
      if (g.support != w.support) {
        out->Add("pattern " + ItemsetToString(g.items) + ": support " +
                 std::to_string(g.support) + " (" + got_name + ") vs " +
                 std::to_string(w.support) + " (" + want_name + ")");
      }
      if (g.intervals != w.intervals) {
        out->Add("pattern " + ItemsetToString(g.items) + ": intervals " +
                 IntervalsToString(g.intervals) + " (" + got_name + ") vs " +
                 IntervalsToString(w.intervals) + " (" + want_name + ")");
      }
      ++i;
      ++j;
    }
  }
}

void CompareStat(const char* name, size_t got, size_t want, Collector* out,
                 const char* got_name = "sequential",
                 const char* want_name = "parallel") {
  if (got != want) {
    out->Add(std::string("stat ") + name + ": " + std::to_string(got) +
             " (" + got_name + ") vs " + std::to_string(want) + " (" +
             want_name + ")");
  }
}

/// Every schedule-invariant counter two equivalent runs must agree on.
void CompareInvariantStats(const RpGrowthStats& got,
                           const RpGrowthStats& want, Collector* out,
                           const char* got_name = "sequential",
                           const char* want_name = "parallel") {
  CompareStat("num_items", got.num_items, want.num_items, out, got_name,
              want_name);
  CompareStat("num_candidate_items", got.num_candidate_items,
              want.num_candidate_items, out, got_name, want_name);
  CompareStat("initial_tree_nodes", got.initial_tree_nodes,
              want.initial_tree_nodes, out, got_name, want_name);
  CompareStat("conditional_trees", got.conditional_trees,
              want.conditional_trees, out, got_name, want_name);
  CompareStat("patterns_examined", got.patterns_examined,
              want.patterns_examined, out, got_name, want_name);
  CompareStat("patterns_emitted", got.patterns_emitted,
              want.patterns_emitted, out, got_name, want_name);
  CompareStat("merge_invocations", got.merge_invocations,
              want.merge_invocations, out, got_name, want_name);
  CompareStat("runs_merged", got.runs_merged, want.runs_merged, out,
              got_name, want_name);
  CompareStat("timestamps_merged", got.timestamps_merged,
              want.timestamps_merged, out, got_name, want_name);
  CompareStat("gate_lists_scanned", got.gate_lists_scanned,
              want.gate_lists_scanned, out, got_name, want_name);
  CompareStat("gate_gaps_scanned", got.gate_gaps_scanned,
              want.gate_gaps_scanned, out, got_name, want_name);
}

/// Check (e): the break-mask walk against the fused scalar loops, per
/// item. Uses each item's full ts-list (the case generator's adversarial
/// cases put INT64-extreme timestamps and run-boundary shapes here) and
/// calls the walk directly, since case lists are shorter than the
/// miners' crossover; compares the gate verdict, the interesting
/// intervals and the recurrence upper bound.
void CheckMaskedGate(const TransactionDatabase& db, const RpParams& params,
                     Collector* out) {
  TsBlockScratch scratch;
  std::vector<PeriodicInterval> masked_intervals;
  std::vector<PeriodicInterval> scalar_intervals;
  for (ItemId item = 0; item < db.ItemUniverseSize(); ++item) {
    const TimestampList ts = db.TimestampsOf({item});
    if (ts.empty()) continue;
    const std::string tag = "item " + std::to_string(item);

    const GateOutcome masked = ComputeGateAndIntervalsMasked(
        ts, params, &masked_intervals, &scratch, nullptr);
    const GateOutcome scalar =
        ComputeGateAndIntervals(ts, params, &scalar_intervals);
    if (masked.passes != scalar.passes ||
        masked.recurrence_upper_bound != scalar.recurrence_upper_bound) {
      out->Add(tag + ": gate " + std::to_string(masked.recurrence_upper_bound) +
               (masked.passes ? " pass" : " fail") + " (masked) vs " +
               std::to_string(scalar.recurrence_upper_bound) +
               (scalar.passes ? " pass" : " fail") + " (scalar)");
    }
    if (masked_intervals != scalar_intervals) {
      out->Add(tag + ": intervals " + IntervalsToString(masked_intervals) +
               " (masked) vs " + IntervalsToString(scalar_intervals) +
               " (scalar)");
    }
    const uint64_t masked_bound =
        ComputeRecurrenceUpperBoundMasked(ts, params, &scratch, nullptr);
    const uint64_t scalar_bound = ComputeRecurrenceUpperBound(ts, params);
    if (masked_bound != scalar_bound) {
      out->Add(tag + ": recurrence bound " + std::to_string(masked_bound) +
               " (masked) vs " + std::to_string(scalar_bound) + " (scalar)");
    }
  }
}

/// Check (c): WindowedRpList fed every transaction with no expiry vs
/// batch Algorithm 1 — per-item support, Erec, interesting intervals,
/// recurrence and the candidate-item set.
void CheckWindowedRpList(const TransactionDatabase& db,
                         const RpParams& params, Collector* out) {
  WindowedRpList list(params.period, params.min_ps);
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) {
      Status s = list.Append(item, tr.ts);
      if (!s.ok()) {
        out->Add("Append(item=" + std::to_string(item) +
                 ", ts=" + std::to_string(tr.ts) +
                 ") rejected a valid transaction: " + s.message());
        return;
      }
    }
  }

  const RpList batch = BuildRpList(db, params);
  for (const RpListEntry& entry : batch.entries()) {
    const ItemId item = entry.item;
    const std::string tag = "item " + std::to_string(item);
    if (list.SupportOf(item) != entry.support) {
      out->Add(tag + ": support " + std::to_string(list.SupportOf(item)) +
               " (windowed) vs " + std::to_string(entry.support) +
               " (batch)");
    }
    if (list.ErecOf(item) != entry.erec) {
      out->Add(tag + ": erec " + std::to_string(list.ErecOf(item)) +
               " (windowed) vs " + std::to_string(entry.erec) + " (batch)");
    }
    const std::vector<PeriodicInterval> got =
        list.InterestingIntervalsOf(item);
    const std::vector<PeriodicInterval> expected = FindInterestingIntervals(
        db.TimestampsOf({item}), params.period, params.min_ps);
    if (got != expected) {
      out->Add(tag + ": intervals " + IntervalsToString(got) +
               " (windowed) vs " + IntervalsToString(expected) + " (batch)");
    }
    if (list.RecurrenceOf(item) != expected.size()) {
      out->Add(tag + ": recurrence " +
               std::to_string(list.RecurrenceOf(item)) + " (windowed) vs " +
               std::to_string(expected.size()) + " (batch)");
    }
  }

  const std::vector<ItemId> list_cand = list.CandidateItems(params.min_rec);
  std::vector<ItemId> batch_cand;
  for (const RpListEntry& e : batch.candidates()) batch_cand.push_back(e.item);
  std::sort(batch_cand.begin(), batch_cand.end());
  if (list_cand != batch_cand) {
    out->Add("candidate set: " + ItemsetToString(list_cand) +
             " (windowed) vs " + ItemsetToString(batch_cand) + " (batch)");
  }
}

/// Check (d): one snapshot + one session serve the case's params on the
/// sequential and parallel backends; each QueryResult must be
/// bit-identical to the direct sequential run `seq` — patterns, intervals
/// AND schedule-invariant counters. Then a stricter query on the same
/// session must (i) actually reuse the looser cached tree and (ii) still
/// match a fresh stricter standalone run exactly.
void CheckEngine(const TransactionDatabase& db, const RpParams& params,
                 const RpGrowthResult& seq, const CrossCheckOptions& options,
                 Collector* out) {
  engine::QuerySession session(engine::DatasetSnapshot::Create(db));
  engine::Query query;
  query.params = params;

  Result<engine::QueryResult> sequential = session.Run(query);
  if (!sequential.ok()) {
    out->Add("sequential backend failed: " + sequential.status().ToString());
    return;
  }
  DiffPatternSets(sequential->patterns, seq.patterns, "engine-sequential",
                  "direct", out);
  // The engine's first run plans at exactly the case's params, so even the
  // build/exploration counters must match a standalone run bit-for-bit.
  CompareInvariantStats(sequential->stats, seq.stats, out,
                        "engine-sequential", "direct");

  engine::ExecOptions exec;
  exec.threads = options.parallel_threads;
  Result<engine::QueryResult> parallel =
      session.Run(query, engine::BackendKind::kParallel, exec);
  if (!parallel.ok()) {
    out->Add("parallel backend failed: " + parallel.status().ToString());
  } else {
    DiffPatternSets(parallel->patterns, seq.patterns, "engine-parallel",
                    "direct", out);
    if (!parallel->tree_reused) {
      out->Add("parallel backend rebuilt the tree the session had cached");
    }
  }

  // Loose->strict planner reuse: the session already holds a build at
  // `params`; a stricter query must be served from it and still agree with
  // a fresh stricter run.
  RpParams strict = params;
  strict.min_ps = params.min_ps + 1;
  strict.min_rec = params.min_rec + 1;
  engine::Query strict_query;
  strict_query.params = strict;
  Result<engine::QueryResult> reused = session.Run(strict_query);
  if (!reused.ok()) {
    out->Add("strict re-query failed: " + reused.status().ToString());
    return;
  }
  if (!reused->tree_reused) {
    out->Add("planner rebuilt instead of reusing the looser tree for " +
             strict.ToString());
  }
  if (reused->session_tree_builds != 1) {
    out->Add("session built " + std::to_string(reused->session_tree_builds) +
             " trees; build-once/query-many expects 1");
  }
  RpGrowthResult fresh = MineRecurringPatterns(db, strict);
  DiffPatternSets(reused->patterns, fresh.patterns, "engine-reused", "fresh",
                  out);
}

/// Check (f): the incremental sliding-window miner vs batch re-mining.
/// The case's transaction stream is replayed through a WindowedMiner in
/// multi-transaction deltas under two window regimes — a tight window
/// (half the case's time span) that exercises expiry, retirement and
/// compaction, and an effectively unbounded window that pins the
/// everything-stays-live path. After EVERY delta:
///   * windowed ≡ batch — the committed pattern set must equal a
///     from-scratch MineRecurringPatterns over the live window contents;
///   * diff identity — (previous set − removed − changed) ∪ changed-new ∪
///     added must reconstruct the committed set exactly.
/// Finally the engine's windowed backend replays the same schedule and
/// must land on the same final set.
void CheckWindowed(const TransactionDatabase& db, const RpParams& params,
                   Collector* out) {
  const std::vector<Transaction>& txns = db.transactions();
  if (txns.empty()) return;

  const Timestamp span = SaturatingGap(txns.front().ts, txns.back().ts);
  struct Config {
    Timestamp window;
    size_t delta;
  };
  const Config configs[] = {
      {std::max<Timestamp>(1, span / 2), std::max<size_t>(1, txns.size() / 4)},
      {std::numeric_limits<Timestamp>::max(), txns.size()},
  };

  std::vector<RecurringPattern> tight_final;
  for (size_t ci = 0; ci < 2; ++ci) {
    const Config& config = configs[ci];
    // A tiny compaction floor so the reclamation path actually runs on
    // harness-sized cases (the production default of 64 would rarely
    // trigger here).
    WindowedMinerOptions wopt;
    wopt.compact_min_stored = 4;
    WindowedMiner miner(params, config.window, wopt);

    std::vector<RecurringPattern> prev;
    for (size_t offset = 0; offset < txns.size(); offset += config.delta) {
      const size_t end = std::min(txns.size(), offset + config.delta);
      std::vector<Transaction> batch(txns.begin() + offset,
                                     txns.begin() + end);
      PatternDelta pd = miner.ApplyDelta(batch);
      const std::string tag = "window=" + std::to_string(config.window) +
                              " delta@" + std::to_string(offset);
      if (!pd.applied) {
        out->Add(tag + ": delta refused: " + pd.status.ToString());
        return;
      }

      // Diff reconstruction identity.
      std::vector<Itemset> dropped;
      dropped.reserve(pd.removed.size() + pd.changed.size());
      for (const RecurringPattern& p : pd.removed) dropped.push_back(p.items);
      for (const RecurringPattern& p : pd.changed) dropped.push_back(p.items);
      std::sort(dropped.begin(), dropped.end());
      std::vector<RecurringPattern> rebuilt;
      for (const RecurringPattern& p : prev) {
        if (!std::binary_search(dropped.begin(), dropped.end(), p.items)) {
          rebuilt.push_back(p);
        }
      }
      rebuilt.insert(rebuilt.end(), pd.changed.begin(), pd.changed.end());
      rebuilt.insert(rebuilt.end(), pd.added.begin(), pd.added.end());
      SortPatternsCanonically(&rebuilt);
      if (rebuilt != miner.patterns()) {
        out->Add(tag + ": diff (added=" + std::to_string(pd.added.size()) +
                 " removed=" + std::to_string(pd.removed.size()) +
                 " changed=" + std::to_string(pd.changed.size()) +
                 ") does not reconstruct the committed pattern set");
      }

      // Windowed ≡ batch-mine-of-window-contents.
      RpGrowthResult fresh =
          MineRecurringPatterns(miner.WindowSnapshot(), params);
      DiffPatternSets(miner.patterns(), fresh.patterns, "windowed", "batch",
                      out);
      prev = miner.patterns();
    }
    if (ci == 0) tight_final = std::move(prev);
  }

  // Engine arm: the windowed backend replaying the tight schedule must
  // commit exactly the direct miner's final set.
  engine::QuerySession session(engine::DatasetSnapshot::Create(db));
  engine::Query query;
  query.params = params;
  query.window = configs[0].window;
  query.delta = configs[0].delta;
  Result<engine::QueryResult> run =
      session.Run(query, engine::BackendKind::kWindowed);
  if (!run.ok()) {
    out->Add("engine windowed backend failed: " + run.status().ToString());
    return;
  }
  DiffPatternSets(run->patterns, tight_final, "engine-windowed", "direct",
                  out);
}

}  // namespace

std::vector<Divergence> CrossCheckCase(const TransactionDatabase& db,
                                       const RpParams& params,
                                       const CrossCheckOptions& options) {
  std::vector<Divergence> divergences;

  // The real sequential run anchors everything: the parallel pattern/stats
  // baseline, and — unless a fault-injected miner stands in — the subject
  // of the oracle check.
  RpGrowthOptions seq_options;
  seq_options.num_threads = 1;
  RpGrowthResult seq = MineRecurringPatterns(db, params, seq_options);
  std::vector<RecurringPattern> subject =
      options.sequential_miner ? options.sequential_miner(db, params)
                               : seq.patterns;

  if (options.check_oracle &&
      db.ItemUniverseSize() <= kMaxDefinitionalItems) {
    Collector out("oracle", options.max_divergences_per_check, &divergences);
    DiffPatternSets(subject, MineByDefinition(db, params), "rp-growth",
                    "oracle", &out);
  }

  if (options.check_parallel) {
    Collector out("parallel", options.max_divergences_per_check,
                  &divergences);
    RpGrowthOptions par_options;
    par_options.num_threads =
        options.parallel_threads > 1 ? options.parallel_threads : 2;
    RpGrowthResult par = MineRecurringPatterns(db, params, par_options);
    DiffPatternSets(subject, par.patterns, "sequential", "parallel", &out);
    // Schedule-invariant counters must not depend on the worker count.
    CompareInvariantStats(seq.stats, par.stats, &out);
  }

  if (options.check_engine) {
    Collector out("engine", options.max_divergences_per_check, &divergences);
    CheckEngine(db, params, seq, options, &out);
  }

  {
    Collector out("masked-gate", options.max_divergences_per_check,
                  &divergences);
    CheckMaskedGate(db, params, &out);
  }

  // The windowed list and miner implement the exact model only.
  const bool windowed =
      options.check_windowed && params.max_gap_violations == 0;
  if (windowed) {
    Collector out("windowed-list", options.max_divergences_per_check,
                  &divergences);
    CheckWindowedRpList(db, params, &out);
  }
  if (windowed) {
    Collector out("windowed", options.max_divergences_per_check,
                  &divergences);
    CheckWindowed(db, params, &out);
  }

  return divergences;
}

}  // namespace rpm::verify
