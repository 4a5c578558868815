// rpm_bench: one run of one workload of the end-to-end benchmark.
//
//   rpm_bench --workload NAME --seed N --seconds S --trace 0|1
//             --spec BENCHMARK.json --out DIR [--commit C] [--smoke]
//
// Prints `workload metric value unit [n=K]` for every metric, writes the
// run JSON DIR/<workload>-seed<N>[-trace].json (and, traced, the Chrome
// trace DIR/<workload>-seed<N>-trace.chrome.json), and ends stdout with
// one JSON line holding exactly the metrics BENCHMARK.json declares for
// the mode: end_to_end untraced, per_layer traced. Exits 1 when an output
// check failed (after printing the result) and 2 on a usage or set-up
// error (without a result).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "measure.h"
#include "rpm/serve/wire.h"
#include "trace.h"
#include "workloads.h"

namespace {

using rpmbench::FormatNumber;

/// Metric names of one list ("end_to_end" or "per_layer") of the spec.
bool DeclaredMetrics(const std::string& spec_path, const std::string& list,
                     std::vector<std::string>* names) {
  std::ifstream in(spec_path);
  std::stringstream text;
  text << in.rdbuf();
  auto spec = rpm::serve::ParseJson(text.str());
  if (!in || !spec.ok()) return false;
  const rpm::serve::JsonValue* entries = spec->Find(list);
  if (entries == nullptr) return false;
  for (const rpm::serve::JsonValue& entry : entries->array) {
    const rpm::serve::JsonValue* name = entry.Find("name");
    if (name == nullptr) return false;
    names->push_back(name->string_value);
  }
  return !names->empty();
}

int Usage(const std::string& problem) {
  std::cerr << "rpm_bench: " << problem
            << "\nusage: rpm_bench --workload mine_sparse|mine_dense|"
               "serve_mixed|window_stream --seed N --seconds S --trace 0|1 "
               "--spec BENCHMARK.json --out DIR [--commit C] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage("unexpected argument " + arg);
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "smoke") {
      smoke = true;
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return Usage("--" + arg + " needs a value");
    }
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "spec", "out"}) {
    if (flags.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }

  rpmbench::RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.trace = flags["trace"] == "1";
  options.smoke = smoke;
  if (smoke) options.seconds = std::min(options.seconds, 0.5);
  options.out_dir = flags["out"];
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }

  std::vector<std::string> declared;
  if (!DeclaredMetrics(flags["spec"],
                       options.trace ? "per_layer" : "end_to_end",
                       &declared)) {
    return Usage("cannot read the metric lists of " + flags["spec"]);
  }

  rpmbench::Report report(options.workload, options.seed, options.trace,
                          rpmbench::ReadHost(flags["commit"]));
  rpmbench::Tracer tracer(options.trace ? size_t{1} << 18 : 0);
  if (options.workload == "mine_sparse" || options.workload == "mine_dense") {
    rpmbench::RunMine(options, options.workload == "mine_dense", &report,
                      &tracer);
  } else if (options.workload == "serve_mixed") {
    rpmbench::RunServe(options, &report, &tracer);
  } else if (options.workload == "window_stream") {
    rpmbench::RunWindow(options, &report, &tracer);
  } else {
    return Usage("unknown workload " + options.workload);
  }
  report.Add("peak_rss_mb", rpmbench::PeakRssMb(), "MB");

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (options.trace) {
    for (const rpmbench::Tracer::Layer& layer : tracer.Summarize()) {
      std::cout << options.workload << " span " << layer.name
                << " count=" << layer.count
                << " total_ms=" << FormatNumber(layer.total_s * 1e3)
                << " self_ms=" << FormatNumber(layer.self_s * 1e3)
                << " p50_ms=" << FormatNumber(layer.p50_s * 1e3) << "\n";
    }
    report.Add("trace.coverage", tracer.Coverage(), "share",
               tracer.recorded());
    report.Check(tracer.dropped() == 0, "trace buffer overflowed");
    report.Check(tracer.WriteChrome(stem + ".chrome.json"),
                 "cannot write " + stem + ".chrome.json");
  }
  if (!report.Finish(declared, stem + ".json")) return 2;
  return report.failed() == 0 ? 0 : 1;
}
