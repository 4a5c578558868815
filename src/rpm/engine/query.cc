#include "rpm/engine/query.h"

#include <limits>

namespace rpm::engine {

Status Query::Validate() const {
  RPM_RETURN_NOT_OK(params.Validate());
  if (!store_patterns && (closed || maximal || top_k > 0)) {
    return Status::InvalidArgument(
        "store_patterns=false requires the raw pattern stream (no "
        "closed/maximal/top-k)");
  }
  if (limits.max_patterns > 0 && top_k > 0) {
    return Status::InvalidArgument(
        "max_patterns is incompatible with top-k (the descent already "
        "bounds the result; a mid-descent cap would corrupt selection)");
  }
  if (window < 0) {
    return Status::InvalidArgument("window must be >= 0 (time units)");
  }
  if (delta > 0 && window == 0) {
    return Status::InvalidArgument(
        "delta requires a window (--window > 0 selects the sliding-window "
        "model)");
  }
  return Status::OK();
}

Status SetOutsideLimits(const OutsideLimits& in, Query* query) {
  constexpr uint64_t kBytesPerMb = uint64_t{1} << 20;
  const struct {
    const char* name;
    uint64_t value;
    uint64_t max;
  } fields[] = {
      {"tolerance", in.tolerance, std::numeric_limits<uint32_t>::max()},
      {"timeout_ms", in.timeout_ms,
       static_cast<uint64_t>(std::numeric_limits<int64_t>::max())},
      {"max_memory_mb", in.max_memory_mb,
       std::numeric_limits<uint64_t>::max() / kBytesPerMb},
  };
  for (const auto& field : fields) {
    if (field.value > field.max) {
      return Status::InvalidArgument(
          std::string(field.name) + " " + std::to_string(field.value) +
          " is out of range (at most " + std::to_string(field.max) + ")");
    }
  }
  query->params.max_gap_violations = static_cast<uint32_t>(in.tolerance);
  query->limits.timeout_ms = static_cast<int64_t>(in.timeout_ms);
  query->limits.memory_budget_bytes = in.max_memory_mb * kBytesPerMb;
  return Status::OK();
}

std::string Query::ToString() const {
  std::string s = "per=" + std::to_string(params.period) +
                  " minPS=" + std::to_string(params.min_ps);
  if (top_k > 0) {
    s += " top-k=" + std::to_string(top_k);
  } else {
    s += " minRec=" + std::to_string(params.min_rec);
  }
  if (params.max_gap_violations > 0) {
    s += " tolerance=" + std::to_string(params.max_gap_violations);
  }
  if (max_pattern_length > 0) {
    s += " max-length=" + std::to_string(max_pattern_length);
  }
  if (window > 0) {
    s += " window=" + std::to_string(window);
    if (delta > 0) s += " delta=" + std::to_string(delta);
  }
  if (closed) s += " closed";
  if (maximal) s += " maximal";
  if (limits.timeout_ms > 0) {
    s += " timeout-ms=" + std::to_string(limits.timeout_ms);
  }
  if (limits.memory_budget_bytes > 0) {
    s += " max-memory-bytes=" + std::to_string(limits.memory_budget_bytes);
  }
  if (limits.max_patterns > 0) {
    s += " max-patterns=" + std::to_string(limits.max_patterns);
  }
  return s;
}

}  // namespace rpm::engine
