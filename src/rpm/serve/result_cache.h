// Single-flight result cache for the query server (DESIGN.md §10).
//
// Keyed on (dataset name, snapshot epoch, canonical query shape), the
// cache stores the DETERMINISTIC response payload of completed queries so
// repeated identical queries — from any tenant — are served without
// re-mining. Two mechanisms compose:
//
//   1. Completed-result cache: bounded FIFO map of key -> payload bytes.
//      Only successful, untruncated results are published (a truncated or
//      failed result depends on limits and timing, so caching it would
//      leak one tenant's budget into another's answer).
//   2. In-flight coalescing ("single flight"): the first arrival for a
//      key becomes the LEADER and computes; concurrent arrivals for the
//      same key become FOLLOWERS and block on the leader's flight instead
//      of redundantly mining the same tree. If the leader fails (publishes
//      nothing), followers fall back to computing independently — an error
//      is never fanned out as if it were a result.
//
// Soundness of the key: snapshot epoch versions the data (a swap changes
// the epoch, so stale entries can never match); the canonical query shape
// covers everything that affects the payload of a COMPLETED query.
// The timeout and memory limits are deliberately excluded — a completed,
// untruncated result is the full deterministic answer under any
// sufficient budget. The pattern cap is not: an uncapped answer can hold
// more patterns than a capped query may return, so max_patterns is keyed.
// The backend is keyed only as batch vs windowed: sequential and parallel
// are bit-identical over the whole snapshot and ignore window/delta,
// while the windowed backend answers for the final window only, so its
// window/delta are part of its key.

#ifndef RPM_SERVE_RESULT_CACHE_H_
#define RPM_SERVE_RESULT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace rpm::serve {

class ResultCache {
 public:
  /// One in-flight computation; followers block on it via Wait().
  struct Flight {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    /// Null when the leader failed or the result was not cacheable.
    std::shared_ptr<const std::string> value;
  };

  struct JoinOutcome {
    /// Completed-cache hit: the payload, ready to send. Null otherwise.
    std::shared_ptr<const std::string> cached;
    /// Set on miss: the flight this caller belongs to.
    std::shared_ptr<Flight> flight;
    /// True when this caller must compute and then Publish() (exactly one
    /// leader per flight).
    bool leader = false;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coalesced = 0;
    uint64_t evictions = 0;
  };

  explicit ResultCache(size_t max_entries) : max_entries_(max_entries) {}

  /// Joins the flight for `key`: cache hit, new leader, or follower.
  JoinOutcome Join(const std::string& key);

  /// Leader hand-off. `value` null or cacheable=false completes the
  /// flight without populating the cache (followers then recompute).
  /// Idempotent; every leader must call it on all paths (see FlightLease).
  void Publish(const std::string& key, const std::shared_ptr<Flight>& flight,
               std::shared_ptr<const std::string> value, bool cacheable);

  /// Follower wait: blocks until the leader publishes; returns the value
  /// (null => compute independently).
  std::shared_ptr<const std::string> Wait(
      const std::shared_ptr<Flight>& flight) const;

  Stats stats() const;
  size_t size() const;

 private:
  void EvictIfNeeded();  // Requires mutex_ held.

  const size_t max_entries_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const std::string>> completed_;
  std::deque<std::string> fifo_;  // Insertion order of completed_ keys.
  std::map<std::string, std::shared_ptr<Flight>> in_flight_;
  Stats stats_;
};

/// RAII leader obligation: guarantees Publish() on every exit path, so a
/// throwing or early-returning leader can never strand followers.
class FlightLease {
 public:
  FlightLease(ResultCache* cache, std::string key,
              std::shared_ptr<ResultCache::Flight> flight)
      : cache_(cache), key_(std::move(key)), flight_(std::move(flight)) {}
  FlightLease(const FlightLease&) = delete;
  FlightLease& operator=(const FlightLease&) = delete;
  ~FlightLease() {
    if (!published_) cache_->Publish(key_, flight_, nullptr, false);
  }

  void Publish(std::shared_ptr<const std::string> value, bool cacheable) {
    cache_->Publish(key_, flight_, std::move(value), cacheable);
    published_ = true;
  }

 private:
  ResultCache* cache_;
  std::string key_;
  std::shared_ptr<ResultCache::Flight> flight_;
  bool published_ = false;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_RESULT_CACHE_H_
