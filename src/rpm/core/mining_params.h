// User-facing mining thresholds (Definition 10): per, minPS, minRec.

#ifndef RPM_CORE_MINING_PARAMS_H_
#define RPM_CORE_MINING_PARAMS_H_

#include <cstdint>
#include <string>

#include "rpm/common/status.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Resolved absolute thresholds for recurring-pattern mining.
///
/// - `period` ("per"): an inter-arrival time iat <= period is periodic
///   (Definition 4).
/// - `min_ps` ("minPS"): a periodic-interval is interesting when its
///   periodic-support >= min_ps (Definition 7).
/// - `min_rec` ("minRec"): X is recurring when it has >= min_rec
///   interesting periodic-intervals (Definition 9).
/// - `max_gap_violations`: extension (paper Sec. 6 future work, "noisy
///   data"): a periodic interval may absorb up to this many inter-arrival
///   times exceeding `period` before it is split. 0 reproduces the paper's
///   exact model.
struct RpParams {
  Timestamp period = 1;
  uint64_t min_ps = 1;
  uint64_t min_rec = 1;
  uint32_t max_gap_violations = 0;

  /// OK iff period > 0, min_ps >= 1, min_rec >= 1.
  Status Validate() const;

  std::string ToString() const;

  friend bool operator==(const RpParams&, const RpParams&) = default;
};

/// minPS * minRec, saturating at UINT64_MAX: the least support any
/// recurring pattern can have (Erec <= floor(support / minPS), Sec. 4.1).
/// Saturates so that a huge minPS cannot wrap the product to a tiny gate.
uint64_t MinSupport(const RpParams& params);

/// Builds params with minPS given as a fraction of the database size, the
/// way the paper's experiments state it (e.g. "minPS = 0.1%" of
/// |TDB| = 100,000 means min_ps = 100). Rounds up; clamps to >= 1.
Result<RpParams> MakeParamsWithMinPsFraction(Timestamp period,
                                             double min_ps_fraction,
                                             uint64_t min_rec,
                                             size_t database_size,
                                             uint32_t max_gap_violations = 0);

}  // namespace rpm

#endif  // RPM_CORE_MINING_PARAMS_H_
