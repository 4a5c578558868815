#include "measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

namespace rpmbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Busy seconds of all CPUs from the aggregate /proc/stat line: every
/// column except idle and iowait (steal included: time the hypervisor gave
/// to someone else is time this run did not get).
double HostBusySeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return 0.0;
  double busy = 0.0;
  for (int column = 0; column < 8; ++column) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    if (column != 3 && column != 4) busy += ticks;  // 3 idle, 4 iowait
  }
  static const double kTicksPerSecond =
      static_cast<double>(sysconf(_SC_CLK_TCK));
  return busy / kTicksPerSecond;
}

std::string ProcSimdLevel() {
  const char* forced = std::getenv("RPM_FORCE_SCALAR");
  if (forced != nullptr && std::string(forced) == "1") return "scalar";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  bool sse2 = false;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    if (line.find(" avx2") != std::string::npos) return "avx2";
    sse2 = sse2 || line.find(" sse2") != std::string::npos;
  }
  return sse2 ? "sse2" : "scalar";
}

std::string ReadLoadavg() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

CpuStamp ReadCpu() {
  CpuStamp stamp;
  stamp.wall = Clock::now();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  stamp.process_cpu_s =
      TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  stamp.host_busy_s = HostBusySeconds();
  return stamp;
}

CpuSlice SliceBetween(const CpuStamp& begin, const CpuStamp& end) {
  CpuSlice slice;
  slice.wall_s = std::chrono::duration<double>(end.wall - begin.wall).count();
  if (slice.wall_s <= 0.0) return slice;
  const double process = end.process_cpu_s - begin.process_cpu_s;
  const double host = end.host_busy_s - begin.host_busy_s;
  slice.process_cores = process / slice.wall_s;
  slice.other_cores = std::max(0.0, host - process) / slice.wall_s;
  // /proc/stat counts in 10 ms ticks, too coarse to judge shorter samples.
  slice.noisy = slice.wall_s >= 0.1 && slice.other_cores > kNoisyOtherCores;
  return slice;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int cpu : cpus_) CPU_SET(cpu, &allowed);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

HostStamp ReadHost(const std::string& commit) {
  HostStamp host;
  host.nproc = std::thread::hardware_concurrency();
  host.simd = ProcSimdLevel();
  host.commit = commit;
  host.loadavg_start = ReadLoadavg();
  host.started_unix = std::chrono::duration<double>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  return host;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Report::Report(std::string workload, uint64_t seed, bool trace,
               HostStamp host)
    : workload_(std::move(workload)),
      seed_(seed),
      trace_(trace),
      host_(std::move(host)) {}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << workload_ << ": CHECK FAILED: " << what << "\n";
}

const Report::Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool Report::Finish(const std::vector<std::string>& declared,
                    const std::string& json_path) {
  host_.loadavg_end = ReadLoadavg();
  size_t noisy = 0;
  for (const CpuSlice& s : slices_) noisy += s.noisy ? 1 : 0;
  Add("proc.noisy_share",
      slices_.empty() ? 0.0
                      : static_cast<double>(noisy) /
                            static_cast<double>(slices_.size()),
      "share", slices_.size());
  Add("fail_share",
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_),
      "share", attempted_);

  for (const Metric& m : metrics_) {
    std::cout << workload_ << " " << m.name << " " << FormatNumber(m.value)
              << " " << m.unit;
    if (m.samples > 0) std::cout << " n=" << m.samples;
    std::cout << "\n";
  }
  std::cout << workload_ << " host nproc=" << host_.nproc
            << " simd=" << host_.simd << " commit=" << host_.commit
            << " loadavg=" << host_.loadavg_start << " -> "
            << host_.loadavg_end << " noisy_samples=" << noisy << "/"
            << slices_.size() << "\n";

  const bool correct = failed_ == 0 && attempted_ > 0;
  std::ostringstream json;
  json << "{\n  \"workload\": " << JsonString(workload_)
       << ",\n  \"seed\": " << seed_
       << ",\n  \"trace\": " << (trace_ ? "true" : "false")
       << ",\n  \"host\": {\"nproc\": " << host_.nproc
       << ", \"simd\": " << JsonString(host_.simd)
       << ", \"commit\": " << JsonString(host_.commit)
       << ", \"loadavg_start\": " << JsonString(host_.loadavg_start)
       << ", \"loadavg_end\": " << JsonString(host_.loadavg_end)
       << ", \"started_unix\": " << FormatNumber(host_.started_unix) << "}"
       << ",\n  \"correct\": " << (correct ? "true" : "false")
       << ",\n  \"attempted\": " << attempted_
       << ",\n  \"failed\": " << failed_ << ",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json << (i == 0 ? "\n" : ",\n") << "    " << JsonString(m.name)
         << ": {\"value\": " << FormatNumber(m.value)
         << ", \"unit\": " << JsonString(m.unit)
         << ", \"samples\": " << m.samples << "}";
  }
  json << "\n  },\n  \"samples\": [";
  for (size_t i = 0; i < slices_.size(); ++i) {
    const CpuSlice& s = slices_[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"wall_s\": "
         << FormatNumber(s.wall_s)
         << ", \"process_cores\": " << FormatNumber(s.process_cores)
         << ", \"other_cores\": " << FormatNumber(s.other_cores)
         << ", \"noisy\": " << (s.noisy ? "true" : "false") << "}";
  }
  json << "\n  ]\n}\n";
  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return false;
  }
  std::cout << "wrote " << json_path << "\n";
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < declared.size(); ++i) {
    const Metric* m = Find(declared[i]);
    if (m == nullptr) {
      std::cerr << workload_ << ": declared metric " << declared[i]
                << " was not measured\n";
      return false;
    }
    line << (i == 0 ? "" : ", ") << JsonString(m->name)
         << ": {\"value\": " << FormatNumber(m->value)
         << ", \"unit\": " << JsonString(m->unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return true;
}

}  // namespace rpmbench
