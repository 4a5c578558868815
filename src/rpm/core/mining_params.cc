#include "rpm/core/mining_params.h"

#include <cmath>
#include <limits>

namespace rpm {

Status RpParams::Validate() const {
  if (period <= 0) {
    return Status::InvalidArgument("period must be > 0, got " +
                                   std::to_string(period));
  }
  if (min_ps < 1) {
    return Status::InvalidArgument("min_ps must be >= 1");
  }
  if (min_rec < 1) {
    return Status::InvalidArgument("min_rec must be >= 1");
  }
  return Status::OK();
}

std::string RpParams::ToString() const {
  std::string out = "per=" + std::to_string(period) +
                    ", minPS=" + std::to_string(min_ps) +
                    ", minRec=" + std::to_string(min_rec);
  if (max_gap_violations > 0) {
    out += ", maxViolations=" + std::to_string(max_gap_violations);
  }
  return out;
}

uint64_t MinSupport(const RpParams& params) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (params.min_rec != 0 && params.min_ps > kMax / params.min_rec) {
    return kMax;
  }
  return params.min_ps * params.min_rec;
}

Result<RpParams> MakeParamsWithMinPsFraction(Timestamp period,
                                             double min_ps_fraction,
                                             uint64_t min_rec,
                                             size_t database_size,
                                             uint32_t max_gap_violations) {
  if (min_ps_fraction < 0.0 || min_ps_fraction > 1.0) {
    return Status::InvalidArgument("min_ps_fraction must be in [0, 1]");
  }
  RpParams params;
  params.period = period;
  params.min_ps = static_cast<uint64_t>(
      std::ceil(min_ps_fraction * static_cast<double>(database_size)));
  if (params.min_ps == 0) params.min_ps = 1;
  params.min_rec = min_rec;
  params.max_gap_violations = max_gap_violations;
  RPM_RETURN_NOT_OK(params.Validate());
  return params;
}

}  // namespace rpm
