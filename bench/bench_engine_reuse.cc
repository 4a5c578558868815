// Build-once/query-many benchmark for the query engine (DESIGN.md §6).
//
// Three session workloads on the scaled Twitter stream, each checked for
// bit-identity against standalone MineRecurringPatterns runs (exit 1 on
// any divergence — a speedup that changes results is worthless):
//
//   repeat  — the dashboard regime: the same query re-executed against a
//             warm session. Reuse skips the RP-list scan + RP-tree
//             build and mines the cached sealed tree in place, so the
//             speedup is the build fraction of the standalone run.
//   sweep   — the drill-down regime: a loosest-first minPS x minRec grid
//             through ONE session (one tree build serves the whole grid).
//             Strict re-queries save the build but mine the looser tree,
//             so per-query gains shrink as the gap to the build point
//             grows — the report makes that tradeoff visible rather than
//             hiding it.
//   top-k   — threshold descent: every round mines the session's one
//             floor build instead of re-scanning the database per round.
//
// Emits BENCH_engine_reuse.json (bench_util.h JsonRecords); EXPERIMENTS.md
// records the numbers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rpm/common/stopwatch.h"
#include "rpm/core/rp_growth.h"
#include "rpm/core/top_k.h"
#include "rpm/engine/session.h"
#include "rpm/gen/paper_datasets.h"

namespace {

constexpr rpm::Timestamp kPer = 1440;

struct Tally {
  double standalone = 0.0;
  double session = 0.0;
  int divergent = 0;
};

void Report(rpmbench::JsonRecords& json, Tally& tally, const char* scenario,
            const rpm::engine::Query& query, size_t patterns,
            double standalone_s, double session_s, bool reused,
            bool identical) {
  const double speedup = session_s > 0.0 ? standalone_s / session_s : 0.0;
  std::printf("%-8s %-24s %12.4f %12.4f %8.2fx %6s\n", scenario,
              query.ToString().c_str(), standalone_s, session_s, speedup,
              reused ? "yes" : "no");
  std::fflush(stdout);
  tally.standalone += standalone_s;
  tally.session += session_s;
  if (!identical) {
    std::fprintf(stderr, "DIVERGENCE [%s] %s\n", scenario,
                 query.ToString().c_str());
    ++tally.divergent;
  }
  json.BeginRecord();
  json.Add("scenario", scenario);
  json.Add("query", query.ToString());
  json.Add("patterns", patterns);
  json.Add("standalone_seconds", standalone_s);
  json.Add("session_seconds", session_s);
  json.Add("speedup", speedup);
  json.Add("tree_reused", reused ? "true" : "false");
  json.Add("identical", identical ? "true" : "false");
}

}  // namespace

int main() {
  using namespace rpmbench;
  const double scale = ScaleFromEnv();
  PrintHeader("Query-engine reuse: build-once/query-many on one snapshot",
              "engine session workloads (DESIGN.md §6); dataset of Fig. 7-9");
  std::printf("scale %.3f\n\n", scale);

  rpm::gen::GeneratedHashtagStream twitter = rpm::gen::MakeTwitter(scale);
  PrintDataset("twitter", twitter.db);
  auto snapshot = rpm::engine::DatasetSnapshot::Create(twitter.db);

  std::vector<rpm::RpParams> grid;
  for (double frac : TwitterMinPsFractions()) {
    for (uint64_t min_rec : PaperMinRecs()) {
      grid.push_back(*rpm::MakeParamsWithMinPsFraction(
          kPer, frac, min_rec, twitter.db.size()));
    }
  }

  JsonRecords json("engine_reuse", scale);
  std::printf("\n%-8s %-24s %12s %12s %9s %6s\n", "scenario", "query",
              "standalone_s", "session_s", "speedup", "reuse");
  Tally tally;

  // --- repeat: warm re-execution of each grid point ----------------------
  for (const rpm::RpParams& params : grid) {
    rpm::RpGrowthResult standalone =
        rpm::MineRecurringPatterns(twitter.db, params);
    rpm::engine::QuerySession session(snapshot);
    rpm::engine::Query query;
    query.params = params;
    rpm::Result<rpm::engine::QueryResult> cold = session.Run(query);
    rpm::Result<rpm::engine::QueryResult> warm = session.Run(query);
    if (!cold.ok() || !warm.ok()) {
      std::fprintf(stderr, "engine run failed\n");
      return 1;
    }
    Report(json, tally, "repeat", query, standalone.patterns.size(),
           standalone.stats.total_seconds, warm->total_seconds,
           warm->tree_reused,
           cold->patterns == standalone.patterns &&
               warm->patterns == standalone.patterns);
  }

  // --- sweep: one session serves the whole grid from one build -----------
  {
    rpm::engine::QuerySession session(snapshot);
    for (const rpm::RpParams& params : grid) {
      rpm::RpGrowthResult standalone =
          rpm::MineRecurringPatterns(twitter.db, params);
      rpm::engine::Query query;
      query.params = params;
      rpm::Result<rpm::engine::QueryResult> result = session.Run(query);
      if (!result.ok()) {
        std::fprintf(stderr, "engine run failed\n");
        return 1;
      }
      Report(json, tally, "sweep", query, standalone.patterns.size(),
             standalone.stats.total_seconds, result->total_seconds,
             result->tree_reused, result->patterns == standalone.patterns);
    }
    std::printf("sweep session: %llu tree build(s) for %zu queries\n",
                static_cast<unsigned long long>(session.tree_builds()),
                grid.size());
  }

  // --- top-k: descent rounds against the session's floor build -----------
  {
    const rpm::RpParams& loosest = grid.front();
    double standalone_s = 0.0;
    rpm::TopKResult standalone;
    {
      rpm::Stopwatch watch;
      standalone =
          rpm::MineTopKByRecurrence(twitter.db, kPer, loosest.min_ps, 10);
      standalone_s = watch.ElapsedSeconds();
    }
    rpm::engine::QuerySession session(snapshot);
    rpm::engine::Query query;
    query.params = loosest;
    query.top_k = 10;
    rpm::Result<rpm::engine::QueryResult> result = session.Run(query);
    if (!result.ok()) {
      std::fprintf(stderr, "engine top-k failed\n");
      return 1;
    }
    Report(json, tally, "top-k", query, standalone.patterns.size(),
           standalone_s, result->total_seconds, result->tree_reused,
           result->patterns == standalone.patterns);
  }

  const double total_speedup =
      tally.session > 0.0 ? tally.standalone / tally.session : 0.0;
  std::printf("\ntotal: standalone %.4fs, session %.4fs (%.2fx)\n",
              tally.standalone, tally.session, total_speedup);
  json.BeginRecord();
  json.Add("scenario", "total");
  json.Add("query", "ALL");
  json.Add("patterns", static_cast<size_t>(0));
  json.Add("standalone_seconds", tally.standalone);
  json.Add("session_seconds", tally.session);
  json.Add("speedup", total_speedup);
  json.Add("tree_reused", "false");
  json.Add("identical", tally.divergent == 0 ? "true" : "false");
  json.WriteFile(JsonReportPath("BENCH_engine_reuse.json"));

  if (tally.divergent > 0) {
    std::fprintf(stderr, "%d divergent quer(ies) — reuse is NOT pure\n",
                 tally.divergent);
    return 1;
  }
  return 0;
}
