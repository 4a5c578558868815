#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

namespace rpmbench {

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer(size_t capacity) : origin_(Clock::now()), records_(capacity) {}

int64_t Tracer::Begin(const char* name, uint64_t id, int64_t parent,
                      Clock::time_point start) {
  if (!enabled()) return -1;
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= records_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Record& r = records_[slot];
  r.name = name;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - origin_).count();
  r.parent = parent;
  r.id = id;
  r.tid = ThreadIndex();
  return static_cast<int64_t>(slot);
}

void Tracer::End(int64_t slot, Clock::time_point end) {
  if (slot < 0) return;
  records_[static_cast<size_t>(slot)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
}

size_t Tracer::recorded() const {
  return std::min(next_.load(), records_.size());
}

std::vector<int64_t> Tracer::ChildNanos() const {
  std::vector<int64_t> child_ns(recorded(), 0);
  for (size_t i = 0; i < child_ns.size(); ++i) {
    const Record& r = records_[i];
    if (r.parent >= 0 && r.end_ns >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  return child_ns;
}

std::vector<Tracer::Layer> Tracer::Summarize() const {
  const size_t n = recorded();
  const std::vector<int64_t> child_ns = ChildNanos();
  std::vector<Layer> layers;
  std::map<std::string, size_t> index;
  std::vector<std::vector<double>> durations;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    auto [it, fresh] = index.emplace(r.name, layers.size());
    if (fresh) {
      layers.push_back({r.name, 0, 0.0, 0.0, 0.0});
      durations.emplace_back();
    }
    Layer& layer = layers[it->second];
    const int64_t dur = r.end_ns - r.start_ns;
    ++layer.count;
    layer.total_s += static_cast<double>(dur) * 1e-9;
    layer.self_s +=
        static_cast<double>(std::max<int64_t>(0, dur - child_ns[i])) * 1e-9;
    durations[it->second].push_back(static_cast<double>(dur) * 1e-9);
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    layers[l].p50_s = Median(durations[l]);
  }
  return layers;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < recorded(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns >= 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::Coverage() const {
  const size_t n = recorded();
  const std::vector<int64_t> child_ns = ChildNanos();
  double covered = 0.0;
  double roots = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    if (r.parent >= 0 || r.end_ns < 0 || child_ns[i] == 0) continue;
    const int64_t dur = r.end_ns - r.start_ns;
    covered += static_cast<double>(std::min(dur, child_ns[i]));
    roots += static_cast<double>(dur);
  }
  return roots > 0.0 ? covered / roots : 0.0;
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (size_t i = 0; i < recorded(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    const char* dot = std::strchr(r.name, '.');
    const std::string layer =
        dot == nullptr ? r.name : std::string(r.name, dot - r.name);
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << r.name
        << "\", \"cat\": \"" << layer << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << r.tid
        << ", \"ts\": " << FormatNumber(static_cast<double>(r.start_ns) / 1e3)
        << ", \"dur\": "
        << FormatNumber(static_cast<double>(r.end_ns - r.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << r.id << ", \"span\": " << i
        << ", \"parent\": " << r.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* name, uint64_t id, int64_t parent)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ != nullptr) slot_ = tracer_->Begin(name, id, parent, start_);
}

double Span::Stop() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) tracer_->End(slot_, end);
  return seconds_;
}

}  // namespace rpmbench
