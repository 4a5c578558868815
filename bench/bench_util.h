// Shared plumbing for the benchmark harnesses: the Table 4 parameter grid,
// dataset construction at a configurable scale, and header boilerplate.
//
// Every bench accepts the RPM_BENCH_SCALE environment variable (a fraction
// of the paper's dataset sizes; default 1.0). Scaled-down runs keep the
// shape of every result while cutting wall-clock time — useful on laptops
// and in CI. EXPERIMENTS.md records the scale its numbers were taken at.

#ifndef RPM_BENCH_BENCH_UTIL_H_
#define RPM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "rpm/common/string_util.h"
#include "rpm/gen/paper_datasets.h"
#include "rpm/timeseries/database_stats.h"

namespace rpmbench {

inline double ScaleFromEnv(double fallback = 1.0) {
  const char* env = std::getenv("RPM_BENCH_SCALE");
  if (env == nullptr) return fallback;
  double scale = std::atof(env);
  if (scale <= 0.0 || scale > 1.0) return fallback;
  return scale;
}

/// The per values of Table 4 (minutes for Shop-14/Twitter; transaction
/// indices for T10I4D100K).
inline const std::vector<rpm::Timestamp>& PaperPeriods() {
  static const std::vector<rpm::Timestamp> kPeriods = {360, 720, 1440};
  return kPeriods;
}

inline const std::vector<uint64_t>& PaperMinRecs() {
  static const std::vector<uint64_t> kMinRecs = {1, 2, 3};
  return kMinRecs;
}

/// Table 4's minPS grids (fractions of |TDB|).
inline const std::vector<double>& QuestShopMinPsFractions() {
  static const std::vector<double> kFracs = {0.001, 0.002, 0.003};
  return kFracs;
}
inline const std::vector<double>& TwitterMinPsFractions() {
  static const std::vector<double> kFracs = {0.02, 0.05, 0.10};
  return kFracs;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================="
              "=================\n");
}

inline void PrintDataset(const char* name,
                         const rpm::TransactionDatabase& db) {
  std::printf("dataset %-12s %s\n", name,
              rpm::ComputeStats(db).ToString().c_str());
}

/// "0.1%" / "2%" labels for minPS fractions.
inline std::string FracLabel(double frac) {
  char buf[32];
  if (frac < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f%%", frac * 100.0);
  }
  return buf;
}

// --- Machine-readable reports ------------------------------------------
//
// Benches historically emit console tables only (snapshotted as
// bench_runs/*.txt); JsonRecords adds a structured twin (BENCH_*.json)
// that scripts can diff across runs without scraping the tables.

// The build stamps every bench binary with the git commit it was built
// from (bench/CMakeLists.txt passes -DRPM_GIT_COMMIT=<short-hash> at
// configure time); out-of-git builds fall back to "unknown".
#ifndef RPM_GIT_COMMIT
#define RPM_GIT_COMMIT "unknown"
#endif

/// UTC wall-clock in ISO 8601 ("2026-08-08T14:03:07Z"), for provenance
/// stamps in bench reports.
inline std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Flat array-of-records JSON document builder for bench reports:
/// {"bench": <name>, "scale": <s>, "hardware_concurrency": <hw>,
///  "git_commit": <build commit>, "generated_at": <ISO UTC>,
///  "records": [{...}, ...]}.
/// The host fields make snapshots self-describing: a reader can tell
/// runs from machines with different core counts apart, and the
/// provenance pair answers "which build produced this file, when" long
/// after the run.
/// Values are rendered on Add, so records may mix field sets freely
/// (they shouldn't — keep them uniform for easy loading).
class JsonRecords {
 public:
  JsonRecords(std::string bench, double scale)
      : bench_(std::move(bench)), scale_(scale) {}

  void BeginRecord() { records_.emplace_back(); }
  void Add(const std::string& key, const std::string& value) {
    // Built with += (not chained operator+) to dodge GCC 12's spurious
    // -Werror=restrict on literal + std::string&& (PR 105651).
    std::string rendered = "\"";
    rendered += JsonEscape(value);
    rendered += '"';
    AddRaw(key, std::move(rendered));
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, double value) {
    AddRaw(key, rpm::FormatDouble(value, 6));
  }
  /// Any integer type (kept as one template so size_t / uint64_t /
  /// Timestamp never collide as overloads across platforms).
  template <typename Int>
    requires std::is_integral_v<Int>
  void Add(const std::string& key, Int value) {
    AddRaw(key, std::to_string(value));
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"";
    out += JsonEscape(bench_);
    out += "\",\n  \"scale\": ";
    out += rpm::FormatDouble(scale_, 4);
    out += ",\n  \"hardware_concurrency\": ";
    out += std::to_string(std::thread::hardware_concurrency());
    out += ",\n  \"git_commit\": \"";
    out += JsonEscape(RPM_GIT_COMMIT);
    out += "\",\n  \"generated_at\": \"";
    out += JsonEscape(IsoTimestampUtc());
    out += "\",\n  \"records\": [\n";
    for (size_t r = 0; r < records_.size(); ++r) {
      out += "    {";
      for (size_t f = 0; f < records_[r].size(); ++f) {
        if (f > 0) out += ", ";
        out += '"';
        out += JsonEscape(records_[r][f].first);
        out += "\": ";
        out += records_[r][f].second;
      }
      out += r + 1 < records_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the document; returns false (and prints to stderr) on failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << ToJson();
    std::fprintf(stdout, "wrote %s (%zu records)\n", path.c_str(),
                 records_.size());
    return true;
  }

 private:
  void AddRaw(const std::string& key, std::string rendered) {
    records_.back().emplace_back(key, std::move(rendered));
  }

  std::string bench_;
  double scale_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// Output path for a bench's JSON twin: $RPM_BENCH_JSON_DIR/<name> when
/// the env var is set (e.g. bench_runs/), else <name> in the cwd.
inline std::string JsonReportPath(const std::string& name) {
  const char* dir = std::getenv("RPM_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return name;
  std::string path(dir);
  if (path.back() != '/') path += '/';
  return path + name;
}

}  // namespace rpmbench

#endif  // RPM_BENCH_BENCH_UTIL_H_
