// Minimal worker pool for suffix-item mining parallelism.
//
// The miner's unit of work is one suffix item of the shared tree; items
// vary wildly in cost (the heaviest conditional subtree can dominate the
// run), so work is pulled from a shared atomic index rather than
// pre-sharded — a finished worker immediately takes the next item instead
// of idling behind a static partition.

#ifndef RPM_CORE_THREAD_POOL_H_
#define RPM_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "rpm/common/failpoint.h"

namespace rpm {

/// Resolves a user-facing thread-count knob: 0 means "use the hardware",
/// anything else is taken literally. Never returns 0.
inline size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Runs fn(worker_id, item_index) for every item_index in [0, num_items),
/// distributing indices dynamically over min(num_workers, num_items)
/// threads. worker_id is in [0, num_workers) and lets callers keep
/// per-worker accumulators without locking. Blocks until all items are
/// done. With num_workers <= 1 everything runs on the calling thread (no
/// threads are spawned).
///
/// fn should not throw — the library itself never does — but an exception
/// escaping a task is contained rather than fatal: work distribution
/// stops, every worker is joined, and the first captured exception is
/// rethrown on the calling thread (previously it escaped a worker and
/// terminated the process mid-join). Items already dispatched may or may
/// not have run; callers treat a throwing ParallelFor as failed wholesale.
///
/// `should_stop` (optional) is a cooperative cancellation probe, polled
/// between items on every worker: once it returns true, no further items
/// are dispatched (in-flight items finish) and the call returns normally —
/// cancellation is the caller's state, not an error. Callers that need to
/// know which items ran must track that themselves (governed miners record
/// per-item completion).
///
/// Thread spawning degrades instead of failing: if std::thread creation
/// throws (resource exhaustion, simulated by the `threadpool.spawn`
/// failpoint), the pool proceeds with however many workers exist — the
/// calling thread always participates, so the floor is a plain sequential
/// loop. Returns the number of workers that actually ran (0 when
/// num_items == 0).
inline size_t ParallelFor(size_t num_items, size_t num_workers,
                          const std::function<void(size_t, size_t)>& fn,
                          const std::function<bool()>& should_stop = nullptr) {
  if (num_items == 0) return 0;
  const size_t workers = std::min(ResolveThreadCount(num_workers), num_items);
  if (workers <= 1) {
    for (size_t i = 0; i < num_items; ++i) {
      if (should_stop && should_stop()) break;
      fn(0, i);
    }
    return 1;
  }
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto drain = [&](size_t worker_id) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < num_items; i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (should_stop && should_stop()) {
        next.store(num_items, std::memory_order_relaxed);
        return;
      }
      try {
        fn(worker_id, i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Park the shared index past the end so every worker, including
        // this one, drains out at its next fetch.
        next.store(num_items, std::memory_order_relaxed);
        return;
      }
    }
  };
  // The spawn failpoint is consulted for every worker before any of them
  // starts, so an injected spawn failure never races the failpoints the
  // workers themselves hit (the seeded campaign replays from its seed).
  size_t spawn = 1;
  while (spawn < workers && !FailpointTriggered("threadpool.spawn")) ++spawn;
  std::vector<std::thread> threads;
  threads.reserve(spawn - 1);
  for (size_t w = 1; w < spawn; ++w) {
    try {
      threads.emplace_back(drain, w);
    } catch (const std::system_error&) {
      break;  // Degrade to the workers spawned so far (possibly none).
    }
  }
  drain(0);  // The calling thread is worker 0.
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return threads.size() + 1;
}

}  // namespace rpm

#endif  // RPM_CORE_THREAD_POOL_H_
