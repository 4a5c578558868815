#include "rpm/baselines/pf_growth.h"

#include <algorithm>
#include <span>

#include "rpm/common/logging.h"
#include "rpm/common/stopwatch.h"
#include "rpm/core/pattern.h"
#include "rpm/core/rp_list.h"
#include "rpm/core/rp_tree.h"

namespace rpm::baselines {

Status PfParams::Validate() const {
  if (min_sup < 1) return Status::InvalidArgument("min_sup must be >= 1");
  if (max_per <= 0) return Status::InvalidArgument("max_per must be > 0");
  return Status::OK();
}

Timestamp ComputePeriodicity(const TimestampList& ts, Timestamp db_start,
                             Timestamp db_end) {
  if (ts.empty()) return db_end - db_start;
  Timestamp per = ts.front() - db_start;
  for (size_t i = 1; i < ts.size(); ++i) {
    per = std::max(per, ts[i] - ts[i - 1]);
  }
  per = std::max(per, db_end - ts.back());
  return per;
}

namespace {

struct PathRef {
  std::vector<uint32_t> ranks;
  std::span<const Timestamp> ts;
};

class PfMiner {
 public:
  PfMiner(const PfParams& params, Timestamp db_start, Timestamp db_end,
          PfGrowthResult* result)
      : params_(params),
        db_start_(db_start),
        db_end_(db_end),
        result_(result) {}

  /// Bottom-up over the sealed tree; its layout makes push-up implicit.
  void MineTree(const TsPrefixTree& tree, Itemset* suffix) {
    for (size_t rank = tree.num_ranks(); rank-- > 0;) {
      if (tree.RankBegin(rank) != tree.RankEnd(rank)) {
        ProcessRank(tree, rank, suffix);
      }
    }
  }

 private:
  /// Periodic-frequent acceptance; also the (anti-monotone) growth gate.
  bool Accept(const TimestampList& sorted_ts) const {
    return sorted_ts.size() >= params_.min_sup &&
           ComputePeriodicity(sorted_ts, db_start_, db_end_) <=
               params_.max_per;
  }

  void ProcessRank(const TsPrefixTree& tree, size_t rank, Itemset* suffix) {
    std::vector<PathRef> paths;
    TimestampList ts_beta;
    for (uint32_t n = tree.RankBegin(rank); n < tree.RankEnd(rank); ++n) {
      PathRef& pr = paths.emplace_back();
      for (uint32_t a = tree.LinkOf(n).parent; a != TsPrefixTree::kNoParent;
           a = tree.LinkOf(a).parent) {
        pr.ranks.push_back(tree.LinkOf(a).rank);
      }
      std::reverse(pr.ranks.begin(), pr.ranks.end());
      pr.ts = tree.ListOf(n);
      ts_beta.insert(ts_beta.end(), pr.ts.begin(), pr.ts.end());
    }
    if (ts_beta.empty()) return;
    std::sort(ts_beta.begin(), ts_beta.end());
    if (!Accept(ts_beta)) return;

    suffix->push_back(tree.ItemAtRank(rank));
    PeriodicFrequentPattern pattern;
    pattern.items = *suffix;
    std::sort(pattern.items.begin(), pattern.items.end());
    pattern.support = ts_beta.size();
    pattern.periodicity = ComputePeriodicity(ts_beta, db_start_, db_end_);
    result_->patterns.push_back(std::move(pattern));

    BuildConditionalAndRecurse(tree, paths, suffix);
    suffix->pop_back();
  }

  void BuildConditionalAndRecurse(const TsPrefixTree& tree,
                                  const std::vector<PathRef>& paths,
                                  Itemset* suffix) {
    const size_t nranks = tree.num_ranks();
    std::vector<TimestampList> acc(nranks);
    std::vector<uint32_t> touched;
    for (const PathRef& pr : paths) {
      for (uint32_t r : pr.ranks) {
        if (acc[r].empty()) touched.push_back(r);
        acc[r].insert(acc[r].end(), pr.ts.begin(), pr.ts.end());
      }
    }
    if (touched.empty()) return;

    std::vector<uint32_t> kept;
    for (uint32_t r : touched) {
      std::sort(acc[r].begin(), acc[r].end());
      if (Accept(acc[r])) kept.push_back(r);
    }
    if (kept.empty()) return;

    std::sort(kept.begin(), kept.end(), [&](uint32_t a, uint32_t b) {
      return acc[a].size() != acc[b].size() ? acc[a].size() > acc[b].size()
                                            : a < b;
    });
    std::vector<uint32_t> new_rank_of(nranks, kNotCandidate);
    std::vector<ItemId> items_by_rank(kept.size());
    for (uint32_t nr = 0; nr < kept.size(); ++nr) {
      new_rank_of[kept[nr]] = nr;
      items_by_rank[nr] = tree.ItemAtRank(kept[nr]);
    }
    TsPrefixTree::Builder builder(std::move(items_by_rank));
    std::vector<uint32_t> mapped;
    for (const PathRef& pr : paths) {
      mapped.clear();
      for (uint32_t r : pr.ranks) {
        if (new_rank_of[r] != kNotCandidate) mapped.push_back(new_rank_of[r]);
      }
      if (mapped.empty()) continue;
      std::sort(mapped.begin(), mapped.end());
      builder.InsertPath(mapped, pr.ts);
    }
    const TsPrefixTree cond = std::move(builder).Seal();
    if (!cond.empty()) MineTree(cond, suffix);
  }

  const PfParams& params_;
  const Timestamp db_start_;
  const Timestamp db_end_;
  PfGrowthResult* result_;
};

}  // namespace

PfGrowthResult MinePeriodicFrequentPatterns(const TransactionDatabase& db,
                                            const PfParams& params) {
  RPM_CHECK(params.Validate().ok());
  PfGrowthResult result;
  if (db.empty()) return result;
  Stopwatch sw;
  const Timestamp db_start = db.start_ts();
  const Timestamp db_end = db.end_ts();

  // Scan 1: per-item support and periodicity (PF-list).
  struct ItemState {
    uint64_t support = 0;
    Timestamp last_ts = 0;
    Timestamp max_gap = 0;
    bool seen = false;
  };
  std::vector<ItemState> state(db.ItemUniverseSize());
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) {
      ItemState& s = state[item];
      if (!s.seen) {
        s.seen = true;
        s.support = 1;
        s.max_gap = tr.ts - db_start;
      } else {
        ++s.support;
        s.max_gap = std::max(s.max_gap, tr.ts - s.last_ts);
      }
      s.last_ts = tr.ts;
    }
  }
  struct Candidate {
    ItemId item;
    uint64_t support;
  };
  std::vector<Candidate> candidates;
  for (ItemId i = 0; i < state.size(); ++i) {
    ItemState& s = state[i];
    if (!s.seen) continue;
    s.max_gap = std::max(s.max_gap, db_end - s.last_ts);
    if (s.support >= params.min_sup && s.max_gap <= params.max_per) {
      candidates.push_back({i, s.support});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.support != b.support ? a.support > b.support
                                            : a.item < b.item;
            });
  result.candidate_items = candidates.size();

  // Scan 2: PF-tree.
  std::vector<uint32_t> rank_of(db.ItemUniverseSize(), kNotCandidate);
  std::vector<ItemId> items_by_rank(candidates.size());
  for (uint32_t rank = 0; rank < candidates.size(); ++rank) {
    rank_of[candidates[rank].item] = rank;
    items_by_rank[rank] = candidates[rank].item;
  }
  TsPrefixTree::Builder builder(std::move(items_by_rank));
  std::vector<uint32_t> ranks;
  for (const Transaction& tr : db.transactions()) {
    ranks.clear();
    for (ItemId item : tr.items) {
      if (rank_of[item] != kNotCandidate) ranks.push_back(rank_of[item]);
    }
    std::sort(ranks.begin(), ranks.end());
    builder.InsertTransaction(ranks, tr.ts);
  }
  const TsPrefixTree tree = std::move(builder).Seal();

  // Bottom-up mining.
  Itemset suffix;
  PfMiner miner(params, db_start, db_end, &result);
  miner.MineTree(tree, &suffix);

  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const PeriodicFrequentPattern& a,
               const PeriodicFrequentPattern& b) { return a.items < b.items; });
  result.seconds = sw.ElapsedSeconds();
  return result;
}

}  // namespace rpm::baselines
