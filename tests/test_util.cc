#include "test_util.h"

#include <algorithm>
#include <cmath>

#include "rpm/gen/hashtag_generator.h"

namespace rpm::testing {

std::vector<RecurringPattern> PaperExamplePatterns() {
  // Table 2, written out literally.
  std::vector<RecurringPattern> expected = {
      {{A}, 8, {{1, 4, 4}, {11, 14, 3}}},
      {{B}, 7, {{1, 4, 3}, {11, 14, 3}}},
      {{D}, 6, {{2, 5, 3}, {9, 12, 3}}},
      {{E}, 6, {{3, 6, 3}, {10, 12, 3}}},
      {{F}, 6, {{3, 6, 3}, {10, 12, 3}}},
      {{A, B}, 7, {{1, 4, 3}, {11, 14, 3}}},
      {{C, D}, 6, {{2, 5, 3}, {9, 12, 3}}},
      {{E, F}, 6, {{3, 6, 3}, {10, 12, 3}}},
  };
  SortPatternsCanonically(&expected);
  return expected;
}

TransactionDatabase DenseBurstDb() {
  gen::HashtagParams p;
  p.num_minutes = 8000;
  p.num_hashtags = 50;
  p.background_rate = 1.0;
  p.daily_dropout_base = 0.0;
  p.daily_dropout_slope = 0.0;
  p.num_random_events = 4;
  p.min_event_tags = 2;
  p.max_event_tags = 4;
  p.min_event_windows = 1;
  p.max_event_windows = 2;
  p.min_event_minutes = 2 * 1440;
  p.max_event_minutes = 6 * 1440;
  p.event_fire_prob = 0.9;
  p.seed = 4242;
  return gen::GenerateHashtagStream(p).db;
}

RpParams DenseBurstParams(const TransactionDatabase& db) {
  RpParams params;
  params.period = 360;
  params.min_ps = static_cast<uint64_t>(
      std::ceil(0.05 * static_cast<double>(db.size())));
  params.min_rec = 1;
  return params;
}

TransactionDatabase MakeRandomDb(const RandomDbSpec& spec, uint64_t seed) {
  Rng rng(seed);

  // Timestamps with random gaps in [1, max_gap].
  std::vector<Timestamp> timestamps(spec.num_timestamps);
  Timestamp ts = 0;
  for (Timestamp& slot : timestamps) {
    ts += 1 + static_cast<Timestamp>(
                  rng.NextUint64(static_cast<uint64_t>(spec.max_gap)));
    slot = ts;
  }

  // Planted bursts: an item pair fires with high probability inside a
  // window of consecutive timestamps.
  struct Burst {
    ItemId first, second;
    size_t begin_idx, end_idx;
  };
  std::vector<Burst> bursts;
  for (size_t b = 0; b < spec.num_bursts; ++b) {
    Burst burst;
    burst.first = static_cast<ItemId>(rng.NextUint64(spec.num_items));
    burst.second = static_cast<ItemId>(rng.NextUint64(spec.num_items));
    const size_t len = 5 + rng.NextUint64(spec.num_timestamps / 3 + 1);
    burst.begin_idx = rng.NextUint64(spec.num_timestamps);
    burst.end_idx = std::min(burst.begin_idx + len, spec.num_timestamps);
    bursts.push_back(burst);
  }

  TdbBuilder builder;
  Itemset txn;
  for (size_t idx = 0; idx < timestamps.size(); ++idx) {
    txn.clear();
    for (ItemId item = 0; item < spec.num_items; ++item) {
      if (rng.NextBernoulli(spec.item_base_prob)) txn.push_back(item);
    }
    for (const Burst& b : bursts) {
      if (idx >= b.begin_idx && idx < b.end_idx &&
          rng.NextBernoulli(spec.burst_prob)) {
        txn.push_back(b.first);
        txn.push_back(b.second);
      }
    }
    if (!txn.empty()) builder.AddTransaction(timestamps[idx], txn);
  }
  return builder.Build();
}

std::string VerifyPatternAgainstDb(const TransactionDatabase& db,
                                   const RpParams& params,
                                   const RecurringPattern& pattern) {
  const TimestampList ts = db.TimestampsOf(pattern.items);
  if (ts.size() != pattern.support) {
    return "support mismatch: reported " + std::to_string(pattern.support) +
           ", actual " + std::to_string(ts.size());
  }
  const std::vector<PeriodicInterval> expected =
      FindInterestingIntervals(ts, params);
  if (expected.size() < params.min_rec) {
    return "pattern is not recurring: rec=" +
           std::to_string(expected.size());
  }
  if (expected != pattern.intervals) {
    return "interval list mismatch";
  }
  return "";
}

}  // namespace rpm::testing
