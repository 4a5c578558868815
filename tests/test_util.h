// Shared fixtures: the paper's running example (Figure 1 / Table 1), a
// structured random database generator for property tests, and
// re-verification of mined patterns against the raw definitions.

#ifndef RPM_TESTS_TEST_UTIL_H_
#define RPM_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "rpm/common/random.h"
#include "rpm/core/measures.h"
#include "rpm/core/mining_params.h"
#include "rpm/core/pattern.h"
#include "rpm/timeseries/tdb_builder.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm::testing {

// Item ids of the running example; names 'a'..'g'.
inline constexpr ItemId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6;

/// The database of Figure 1 / Table 1 (timestamps 8 and 13 absent).
inline TransactionDatabase PaperExampleDb() {
  ItemDictionary dict;
  for (const char* name : {"a", "b", "c", "d", "e", "f", "g"}) {
    dict.GetOrAdd(name);
  }
  return MakeDatabase(
      {
          {1, {A, B, G}},
          {2, {A, C, D}},
          {3, {A, B, E, F}},
          {4, {A, B, C, D}},
          {5, {C, D, E, F, G}},
          {6, {E, F, G}},
          {7, {A, B, C, G}},
          {9, {C, D}},
          {10, {C, D, E, F}},
          {11, {A, B, E, F}},
          {12, {A, B, C, D, E, F, G}},
          {14, {A, B, G}},
      },
      std::move(dict));
}

/// The paper's running-example thresholds: per=2, minPS=3, minRec=2.
inline RpParams PaperExampleParams() {
  RpParams params;
  params.period = 2;
  params.min_ps = 3;
  params.min_rec = 2;
  return params;
}

/// The expected Table 2 result set for PaperExampleDb at
/// PaperExampleParams, canonical order.
std::vector<RecurringPattern> PaperExamplePatterns();

struct RandomDbSpec {
  uint32_t num_items = 6;
  size_t num_timestamps = 60;
  Timestamp max_gap = 3;          ///< Random gap between timestamps.
  double item_base_prob = 0.25;   ///< Background item probability.
  size_t num_bursts = 3;          ///< Windows where an item pair is boosted.
  double burst_prob = 0.9;
};

/// Structured random database: background noise plus planted bursts, so
/// random instances actually contain recurring patterns. Deterministic in
/// `seed`.
TransactionDatabase MakeRandomDb(const RandomDbSpec& spec, uint64_t seed);

/// A dense burst stream: 50 tags with no background dropout and a few
/// 2-6 day events firing at 0.9, over 8,000 minutes. Few distinct
/// transaction shapes recur for long stretches, so a rank's nodes carry
/// long pushed-up lists that interleave. Deterministic.
TransactionDatabase DenseBurstDb();

/// The dense regime's classic relative threshold for `db`: minPS = 5 %
/// of the transactions, per 6 h. minRec is 1, because the stream has too
/// few events for many itemsets to recur twice.
RpParams DenseBurstParams(const TransactionDatabase& db);

/// Re-derives TS^X from the database and checks the pattern's support and
/// interval list against the definitional measures. Returns an empty
/// string when the pattern verifies, else a description of the mismatch.
std::string VerifyPatternAgainstDb(const TransactionDatabase& db,
                                   const RpParams& params,
                                   const RecurringPattern& pattern);

}  // namespace rpm::testing

#endif  // RPM_TESTS_TEST_UTIL_H_
