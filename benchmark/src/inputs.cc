#include "inputs.h"

#include <numeric>

#include "rpm/common/random.h"
#include "rpm/gen/hashtag_generator.h"
#include "rpm/gen/paper_datasets.h"

namespace rpmbench {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return rpm::SplitMix64(&state);
}

namespace {

/// The seed's variant of a generated database: item names permuted and
/// every timestamp shifted by whole days. Mining work is unchanged (the
/// loader numbers items by first appearance, and gaps do not move), so
/// seeds vary the input bytes and the output without varying the cost.
rpm::TransactionDatabase Relabel(const rpm::TransactionDatabase& db,
                                 uint64_t seed) {
  std::vector<size_t> names(db.ItemUniverseSize());
  std::iota(names.begin(), names.end(), size_t{0});
  rpm::Rng rng(SubSeed(seed, 1));
  rng.Shuffle(&names);
  rpm::ItemDictionary dict;
  for (size_t name : names) {
    std::string label = "i";
    label += std::to_string(name);
    dict.GetOrAdd(label);
  }
  const rpm::Timestamp shift =
      static_cast<rpm::Timestamp>(rng.NextUint64(1000)) * 1440;
  std::vector<rpm::Transaction> txns = db.transactions();
  for (rpm::Transaction& tr : txns) tr.ts += shift;
  return rpm::TransactionDatabase(std::move(txns), std::move(dict));
}

}  // namespace

rpm::TransactionDatabase MakeSparseDb(uint64_t seed, double scale) {
  return Relabel(rpm::gen::MakeT10I4D100K(scale), seed);
}

rpm::TransactionDatabase MakeDenseDb(uint64_t seed, double scale) {
  rpm::gen::HashtagParams p;
  p.num_minutes = static_cast<size_t>(40000 * scale);
  p.num_hashtags = 50;
  p.background_rate = 1.0;
  p.daily_dropout_base = 0.0;
  p.daily_dropout_slope = 0.0;
  // Event count scales with the stream so event overlap keeps its shape.
  p.num_random_events = static_cast<size_t>(16 * scale) + 1;
  p.min_event_tags = 2;
  p.max_event_tags = 4;
  p.min_event_windows = 1;
  p.max_event_windows = 2;
  p.min_event_minutes = 2 * 1440;
  p.max_event_minutes = 6 * 1440;
  p.event_fire_prob = 0.9;
  p.seed = 4242;
  return Relabel(rpm::gen::GenerateHashtagStream(p).db, seed);
}

rpm::TransactionDatabase MakeShopDb(uint64_t seed, double scale) {
  return Relabel(rpm::gen::MakeShop14(scale).db, seed);
}

WindowStream::WindowStream(uint64_t seed) : group_order_(kGroups) {
  std::iota(group_order_.begin(), group_order_.end(), size_t{0});
  rpm::Rng rng(SubSeed(seed, 4));
  rng.Shuffle(&group_order_);
  dropout_phase_ = static_cast<size_t>(rng.NextUint64(23));
}

rpm::Transaction WindowStream::At(size_t t) const {
  rpm::Transaction tr;
  tr.ts = static_cast<rpm::Timestamp>(t);
  const size_t slot = (t / kBurstLen) % kGroups;
  const size_t group = group_order_[slot];
  for (size_t i = 0; i < kItemsPerGroup; ++i) {
    // 31*i mod 23 differs for i < 4, so at most one item drops per tick.
    if ((t + 31 * i + dropout_phase_) % 23 == 0) continue;
    tr.items.push_back(static_cast<rpm::ItemId>(group * kItemsPerGroup + i));
  }
  const size_t epoch = t / kWindowTicks;
  if (slot == epoch % kGroups) {
    tr.items.push_back(static_cast<rpm::ItemId>(kGroups * kItemsPerGroup +
                                                epoch % kEpochSlots));
  }
  return tr;
}

std::vector<QueryShape> ShapeCatalog() {
  static const int64_t kPers[] = {360, 720, 1440};
  static const double kFractions[] = {0.005, 0.0075, 0.01, 0.015,
                                      0.02,  0.03,   0.04};
  std::vector<QueryShape> shapes;
  for (int64_t per : kPers) {
    for (double fraction : kFractions) {
      for (uint64_t min_rec = 1; min_rec <= 3; ++min_rec) {
        for (uint64_t max_length : {uint64_t{0}, uint64_t{4}}) {
          shapes.push_back({per, fraction, min_rec, max_length});
        }
      }
    }
  }
  return shapes;
}

}  // namespace rpmbench
