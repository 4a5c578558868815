// Measurement plumbing shared by the workloads: clocks, sample statistics,
// per-sample CPU and noise stamps, host stamps, and the run report that
// prints every metric and the one-line JSON result.

#ifndef RPM_BENCHMARK_MEASURE_H_
#define RPM_BENCHMARK_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rpmbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
double Sum(const std::vector<double>& values);

/// FNV-1a 64 of `bytes` (output equality checks).
uint64_t Fnv1a(const std::string& bytes);

/// Process CPU seconds (user + system) and this host's busy CPU seconds
/// (all CPUs, steal included) at one instant.
struct CpuStamp {
  Clock::time_point wall;
  double process_cpu_s = 0.0;
  double host_busy_s = 0.0;
};
CpuStamp ReadCpu();

/// One measured sample's CPU picture. `other_cores` is CPU that processes
/// other than this one used during the sample (steal time included); above
/// kNoisyOtherCores a sample of at least 0.1 s is flagged noisy. Noisy
/// samples are kept in every statistic; the flag only marks them.
struct CpuSlice {
  double wall_s = 0.0;
  double process_cores = 0.0;
  double other_cores = 0.0;
  bool noisy = false;
};
inline constexpr double kNoisyOtherCores = 0.5;
CpuSlice SliceBetween(const CpuStamp& begin, const CpuStamp& end);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Moves the calling thread over the CPUs the process may run on: each
/// Next() pins it to the following one, round-robin. On a shared host each
/// vCPU has slow phases of its own, tens of seconds long, so a thread left
/// where the scheduler put it can spend a whole run on one slow vCPU. The
/// destructor lets the thread run on all of them again. Pinning is best
/// effort: where the affinity calls fail, the thread stays unpinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct HostStamp {
  unsigned nproc = 0;
  std::string simd;  ///< "avx2" / "sse2" / "scalar" (RPM_FORCE_SCALAR=1).
  std::string commit;
  std::string loadavg_start;
  std::string loadavg_end;
  double started_unix = 0.0;  ///< Run start, seconds since 1970.
};
HostStamp ReadHost(const std::string& commit);

/// Collects one run's metrics, checks and samples, then prints them.
class Report {
 public:
  Report(std::string workload, uint64_t seed, bool trace, HostStamp host);

  /// Records a metric. `samples` is the number of measurements behind the
  /// value (0 for counts and ratios).
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);

  /// Counts one checked operation; a false `ok` counts it as failed and
  /// logs `what` to stderr.
  void Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void AddSlice(const CpuSlice& slice) { slices_.push_back(slice); }

  /// Prints `workload metric value unit [n=K]` for every metric, writes the
  /// run JSON to `json_path`, and prints the result line holding exactly
  /// the metrics named in `declared`, in that order. Returns false when a
  /// declared metric was never recorded.
  bool Finish(const std::vector<std::string>& declared,
              const std::string& json_path);

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  const Metric* Find(const std::string& name) const;

  std::string workload_;
  uint64_t seed_;
  bool trace_;
  HostStamp host_;
  std::vector<Metric> metrics_;
  std::vector<CpuSlice> slices_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Number rendering with all significant digits ("%.17g", JSON-safe).
std::string FormatNumber(double value);

}  // namespace rpmbench

#endif  // RPM_BENCHMARK_MEASURE_H_
