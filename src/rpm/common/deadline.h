// Monotonic wall-clock deadlines for resource-governed queries.
//
// A Deadline is a point on std::chrono::steady_clock (immune to system
// clock adjustments). The default-constructed deadline is infinite, so
// "no timeout" costs one comparison and never consults the clock.

#ifndef RPM_COMMON_DEADLINE_H_
#define RPM_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace rpm {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// The infinite deadline (never expires).
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. ms <= 0 is already expired; a
  /// deadline past the clock's range saturates to its last time point
  /// (the clock counts nanoseconds, so 2^63 - 1 ms would overflow it).
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    d.infinite_ = false;
    const Clock::time_point now = Clock::now();
    const int64_t headroom_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now)
            .count();
    d.when_ = ms >= headroom_ms ? Clock::time_point::max()
                                : now + std::chrono::milliseconds(ms);
    return d;
  }

  bool infinite() const { return infinite_; }

  /// True when the deadline has passed. Infinite deadlines never expire
  /// and never read the clock.
  bool Expired() const { return !infinite_ && Clock::now() >= when_; }

  /// Milliseconds until expiry (negative when already expired).
  /// Precondition: !infinite().
  int64_t RemainingMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(when_ -
                                                                 Clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  Clock::time_point when_{};
};

}  // namespace rpm

#endif  // RPM_COMMON_DEADLINE_H_
