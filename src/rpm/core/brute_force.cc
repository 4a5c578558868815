#include "rpm/core/brute_force.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "rpm/common/logging.h"
#include "rpm/core/measures.h"

namespace rpm {

namespace {

/// Items that occur at least once, ascending.
Itemset PresentItems(const TransactionDatabase& db) {
  std::vector<bool> seen(db.ItemUniverseSize(), false);
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) seen[item] = true;
  }
  Itemset items;
  for (ItemId i = 0; i < seen.size(); ++i) {
    if (seen[i]) items.push_back(i);
  }
  return items;
}

/// Intersection of two sorted timestamp lists.
TimestampList Intersect(const TimestampList& a, const TimestampList& b) {
  TimestampList out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<RecurringPattern> MineByDefinition(const TransactionDatabase& db,
                                               const RpParams& params) {
  RPM_CHECK(params.Validate().ok());
  const Itemset items = PresentItems(db);
  RPM_CHECK(items.size() <= kMaxDefinitionalItems)
      << "MineByDefinition is exponential; got " << items.size()
      << " distinct items";

  std::vector<RecurringPattern> out;
  const uint64_t num_subsets = uint64_t{1} << items.size();
  Itemset pattern;
  for (uint64_t mask = 1; mask < num_subsets; ++mask) {
    pattern.clear();
    for (size_t bit = 0; bit < items.size(); ++bit) {
      if (mask & (uint64_t{1} << bit)) pattern.push_back(items[bit]);
    }
    // Definitions 3-9, applied literally.
    TimestampList ts = db.TimestampsOf(pattern);
    if (ts.empty()) continue;
    std::vector<PeriodicInterval> ipi = FindInterestingIntervals(ts, params);
    if (ipi.size() >= params.min_rec) {
      out.push_back({pattern, ts.size(), std::move(ipi)});
    }
  }
  SortPatternsCanonically(&out);
  return out;
}

namespace {

class VerticalMiner {
 public:
  VerticalMiner(const RpParams& params, const VerticalMinerOptions& options,
                VerticalMinerResult* result)
      : params_(params), options_(options), result_(result) {}

  void Run(const std::vector<std::pair<ItemId, TimestampList>>& columns) {
    Itemset pattern;
    for (size_t i = 0; i < columns.size(); ++i) {
      Extend(columns, i, columns[i].second, &pattern);
    }
  }

  /// Mines only the top-level branches with index % stride == shard.
  void RunShard(const std::vector<std::pair<ItemId, TimestampList>>& columns,
                size_t shard, size_t stride) {
    Itemset pattern;
    for (size_t i = shard; i < columns.size(); i += stride) {
      Extend(columns, i, columns[i].second, &pattern);
    }
  }

 private:
  bool PassesGate(const TimestampList& ts) const {
    if (ts.size() < MinSupport(params_)) return false;
    if (!options_.use_candidate_pruning) return true;
    return ComputeRecurrenceUpperBound(ts, params_) >= params_.min_rec;
  }

  void Extend(const std::vector<std::pair<ItemId, TimestampList>>& columns,
              size_t index, const TimestampList& ts, Itemset* pattern) {
    ++result_->nodes_explored;
    if (!PassesGate(ts)) return;

    pattern->push_back(columns[index].first);
    std::vector<PeriodicInterval> ipi = FindInterestingIntervals(ts, params_);
    if (ipi.size() >= params_.min_rec) {
      result_->patterns.push_back({*pattern, ts.size(), std::move(ipi)});
    }
    const bool depth_ok = options_.max_pattern_length == 0 ||
                          pattern->size() < options_.max_pattern_length;
    if (depth_ok) {
      for (size_t j = index + 1; j < columns.size(); ++j) {
        TimestampList joint = Intersect(ts, columns[j].second);
        if (!joint.empty()) Extend(columns, j, joint, pattern);
      }
    }
    pattern->pop_back();
  }

  const RpParams& params_;
  const VerticalMinerOptions& options_;
  VerticalMinerResult* result_;
};

}  // namespace

VerticalMinerResult MineVertical(const TransactionDatabase& db,
                                 const RpParams& params,
                                 const VerticalMinerOptions& options) {
  RPM_CHECK(params.Validate().ok());

  // Build the vertical representation: per-item sorted timestamp lists.
  std::vector<TimestampList> lists(db.ItemUniverseSize());
  for (const Transaction& tr : db.transactions()) {
    for (ItemId item : tr.items) lists[item].push_back(tr.ts);
  }
  std::vector<std::pair<ItemId, TimestampList>> columns;
  for (ItemId i = 0; i < lists.size(); ++i) {
    if (!lists[i].empty()) columns.emplace_back(i, std::move(lists[i]));
  }

  VerticalMinerResult result;
  if (options.num_threads <= 1 || columns.size() <= 1) {
    VerticalMiner miner(params, options, &result);
    miner.Run(columns);
  } else {
    const size_t workers = std::min(options.num_threads, columns.size());
    std::vector<VerticalMinerResult> partials(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        VerticalMiner miner(params, options, &partials[w]);
        miner.RunShard(columns, w, workers);
      });
    }
    for (std::thread& t : threads) t.join();
    for (VerticalMinerResult& partial : partials) {
      result.nodes_explored += partial.nodes_explored;
      result.patterns.insert(result.patterns.end(),
                             std::make_move_iterator(partial.patterns.begin()),
                             std::make_move_iterator(partial.patterns.end()));
    }
  }
  SortPatternsCanonically(&result.patterns);
  return result;
}

}  // namespace rpm
