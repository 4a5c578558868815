// Span recorder for the traced runs. Spans are taken around the benchmark's
// own calls into each layer's public functions (nothing inside the program
// is instrumented). Records live in one buffer allocated up front; slots
// are claimed with an atomic counter, so recording from several threads
// takes no lock. The buffer is read only after every recording thread has
// been joined, and is written out as Chrome trace-event JSON.

#ifndef RPM_BENCHMARK_TRACE_H_
#define RPM_BENCHMARK_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace rpmbench {

class Tracer {
 public:
  explicit Tracer(size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording switch; Begin() returns -1 while off. Runs toggle it to
  /// measure the same operation with and without recording.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span and returns its slot, or -1 when recording is off or the
  /// buffer is full. `name` must be a string literal; `id` is the job or
  /// request the span belongs to; `parent` is the enclosing span's slot.
  int64_t Begin(const char* name, uint64_t id, int64_t parent,
                Clock::time_point start);
  void End(int64_t slot, Clock::time_point end);

  struct Layer {
    std::string name;
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time direct children cover.
    double p50_s = 0.0;
  };
  /// Per span name, in first-recorded order.
  std::vector<Layer> Summarize() const;

  /// Durations (seconds) of every recorded span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Time covered by direct children over the duration of their parent,
  /// summed over every root span that has children.
  double Coverage() const;

  size_t recorded() const;
  size_t dropped() const { return dropped_.load(); }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChrome(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int64_t parent = -1;
    uint64_t id = 0;
    uint32_t tid = 0;
  };
  /// Per slot: nanoseconds covered by its direct children.
  std::vector<int64_t> ChildNanos() const;

  Clock::time_point origin_;
  std::vector<Record> records_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> dropped_{0};
  std::atomic<bool> enabled_{false};
};

/// RAII span that doubles as a stopwatch: seconds() is measured whether or
/// not the tracer records, so traced and untraced passes share one code
/// path. A null tracer only times.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t id, int64_t parent = -1);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Stop(); }

  /// Closes the span (idempotent) and returns its duration in seconds.
  double Stop();
  int64_t slot() const { return slot_; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int64_t slot_ = -1;
  double seconds_ = -1.0;
};

}  // namespace rpmbench

#endif  // RPM_BENCHMARK_TRACE_H_
