// Seeded workload inputs. Every input is a pure function of the run's
// --seed (and the smoke flag), so the same seed reproduces the same bytes.
// Datasets come from the generators' canonical seeds; --seed picks the
// variant (item names, time shift, request order, group order), not the
// shape, so runs with different seeds measure the same amount of work.

#ifndef RPM_BENCHMARK_INPUTS_H_
#define RPM_BENCHMARK_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rpm/timeseries/transaction_database.h"

namespace rpmbench {

/// Independent sub-seed `salt` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// T10I4D100K (100k transactions, 1000-item universe; `scale` shrinks it).
rpm::TransactionDatabase MakeSparseDb(uint64_t seed, double scale);

/// The dense burst hashtag stream: 50 tags, 40k minutes at scale 1, few
/// long planted events firing at 0.9 (the dense-synth shape of
/// bench/bench_hotpath.cc, declared again here so the benchmark owns it).
rpm::TransactionDatabase MakeDenseDb(uint64_t seed, double scale);

/// Shop-14 clickstream at `scale` (0.25 gives about 14k transactions).
rpm::TransactionDatabase MakeShopDb(uint64_t seed, double scale);

/// Grouped-burst monitoring stream (bench/bench_incremental.cc's shape,
/// widened to 96 groups of 4 items): group g fires in bursts of 8
/// consecutive ticks, round-robin, so each group recurs in 5 intervals per
/// 3,840-tick window; a per-item dropout punches holes that split
/// intervals, and a rotating epoch item stops occurring at each epoch
/// boundary so its tree nodes retire. The seed permutes the group order
/// and shifts the dropout phase.
class WindowStream {
 public:
  static constexpr size_t kGroups = 96;
  static constexpr size_t kItemsPerGroup = 4;
  static constexpr size_t kBurstLen = 8;
  static constexpr size_t kBurstsInWindow = 5;
  static constexpr size_t kWindowTicks = kGroups * kBurstLen * kBurstsInWindow;
  static constexpr size_t kEpochSlots = 4;
  /// Item ids the stream can emit (group items, then epoch items).
  static constexpr size_t kItems = kGroups * kItemsPerGroup + kEpochSlots;

  explicit WindowStream(uint64_t seed);

  /// Transaction at stream position t (timestamp t), items ascending.
  rpm::Transaction At(size_t t) const;

 private:
  std::vector<size_t> group_order_;
  size_t dropout_phase_ = 0;
};

/// One serve query shape of the fixed catalog.
struct QueryShape {
  int64_t per = 0;
  double min_ps_fraction = 0.0;
  uint64_t min_rec = 0;
  uint64_t max_length = 0;
};

/// The 126-shape catalog: per in {360, 720, 1440} x 7 minPS fractions in
/// 0.5-4 % x minRec in {1, 2, 3} x max_length in {0, 4}.
std::vector<QueryShape> ShapeCatalog();

}  // namespace rpmbench

#endif  // RPM_BENCHMARK_INPUTS_H_
