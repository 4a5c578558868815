// End-to-end tests of the rpminer CLI command layer (RunRpminer against
// in-memory streams and temp files).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/core/rp_growth.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/tools/commands.h"
#include "test_util.h"

namespace rpm::tools {
namespace {

/// Writes the paper's running example to a temp file; returns the path.
/// A temp-file path unique to the running test: ctest runs each test in
/// its own process, concurrently, so a shared name lets one test delete
/// another's input.
std::string TestTempPath(const std::string& suffix) {
  std::string path = ::testing::TempDir();
  path += "/rpminer_cli_";
  path += ::testing::UnitTest::GetInstance()->current_test_info()->name();
  path += suffix;
  return path;
}

std::string WritePaperExampleFile() {
  std::string path = TestTempPath("_example.tspmf");
  std::ofstream out(path);
  WriteTimestampedSpmf(rpm::testing::PaperExampleDb(), &out);
  return path;
}

/// Writes a --queries file; returns the path.
std::string WriteQueriesFile(const std::string& contents) {
  std::string path = TestTempPath("_queries.txt");
  std::ofstream out(path);
  out << contents;
  return path;
}

int RunCli(std::initializer_list<const char*> args, std::string* out_text,
        std::string* err_text) {
  std::vector<const char*> argv(args);
  std::ostringstream out, err;
  int code =
      RunRpminer(static_cast<int>(argv.size()), argv.data(), out, err);
  *out_text = out.str();
  *err_text = err.str();
  return code;
}

TEST(CliTest, NoArgsPrintsUsage) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer"}, &out, &err), 1);
  EXPECT_NE(err.find("usage: rpminer"), std::string::npos);
}

TEST(CliTest, UnknownCommand) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "frobnicate"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliTest, EveryListedCommandDispatches) {
  // The usage text is rendered from the dispatch table: every name it lists
  // must reach its own flag parser, not the unknown-command path.
  std::istringstream usage(RpminerUsage());
  std::vector<std::string> names;
  for (std::string line; std::getline(usage, line);) {
    if (line.rfind("  ", 0) == 0) {
      names.push_back(line.substr(2, line.find(' ', 2) - 2));
    }
  }
  EXPECT_EQ(names.size(), 10u) << RpminerUsage();
  for (const std::string& name : names) {
    std::vector<const char*> argv = {"rpminer", name.c_str(),
                                     "--no-such-flag"};
    std::ostringstream out, err;
    EXPECT_EQ(RunRpminer(static_cast<int>(argv.size()), argv.data(), out,
                         err),
              1)
        << name;
    EXPECT_EQ(err.str().find("unknown command"), std::string::npos) << name;
    EXPECT_NE(err.str().find("unknown flag --no-such-flag"),
              std::string::npos)
        << name << ": " << err.str();
    EXPECT_NE(err.str().find("rpminer " + name), std::string::npos)
        << name << ": " << err.str();
  }
}

TEST(CliTest, ConflictingFlagsAreUsageErrorsNamingBothFlags) {
  // Each case: the argv after "rpminer", then the two flags the message
  // must name. Every case is rejected before any input is read.
  struct Case {
    std::vector<const char*> args;
    const char* first;
    const char* second;
  };
  const std::vector<Case> cases = {
      {{"mine", "--input=/no/such/file", "--queries=q.txt", "--per=2"},
       "--queries",
       "--per"},
      {{"mine", "--input=/no/such/file", "--queries=q.txt",
        "--max-patterns=5"},
       "--queries",
       "--max-patterns"},
      {{"mine", "--input=/no/such/file", "--queries=q.txt", "--threads=4"},
       "--queries",
       "--threads"},
      {{"mine", "--input=/no/such/file", "--queries=q.txt",
        "--backend=parallel"},
       "--queries",
       "--backend"},
      {{"mine", "--input=/no/such/file", "--queries=q.txt", "--stats"},
       "--queries",
       "--stats"},
      {{"mine", "--input=/no/such/file", "--queries=q.txt",
        "--output-format=json"},
       "--queries",
       "--output-format"},
      {{"mine", "--input=/no/such/file", "--stats", "--output-format=csv"},
       "--stats",
       "--output-format"},
      {{"mine", "--input=/no/such/file", "--threads=4",
        "--backend=sequential"},
       "--threads",
       "--backend"},
      {{"mine", "--input=/no/such/file", "--threads=0", "--backend=windowed",
        "--window=10"},
       "--threads",
       "--backend"},
      // Not a conflict but a missing threshold, rejected the same way.
      {{"mine", "--input=/no/such/file", "--per=2", "--min-rec=2"},
       "--min-ps ",
       "--min-ps-pct"},
      {{"verify", "--fault-ppm=10"}, "--fault-ppm", "--faults"},
      {{"verify", "--faults=5", "--cases=3"}, "--faults", "--cases"},
      {{"verify", "--faults=5", "--no-oracle"}, "--faults", "--no-oracle"},
      {{"verify", "--faults=5", "--fixed-params", "--per=2"},
       "--faults",
       "--fixed-params"},
      {{"verify", "--cases=2", "--per=2"}, "--per", "--fixed-params"},
      {{"verify", "--cases=2", "--min-rec=3"}, "--min-rec", "--fixed-params"},
  };
  for (const Case& c : cases) {
    std::vector<const char*> argv = {"rpminer"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    std::ostringstream out, err;
    const std::string label = std::string(c.first) + " / " + c.second;
    EXPECT_EQ(RunRpminer(static_cast<int>(argv.size()), argv.data(), out,
                         err),
              1)
        << label << ": " << err.str();
    EXPECT_NE(err.str().find(c.first), std::string::npos) << err.str();
    EXPECT_NE(err.str().find(c.second), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << label << ": " << out.str();
  }
}

TEST(CliTest, QueryLineAndCommandLineResolveTheSameBackend) {
  std::string path = WritePaperExampleFile();
  std::string queries =
      WriteQueriesFile("--per=2 --min-ps=3 --min-rec=2 --threads=2\n");
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                    "--min-ps=3", "--min-rec=2", "--threads=2"},
                   &out, &err),
            0)
      << err;
  EXPECT_NE(err.find("[2 threads"), std::string::npos) << err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                    queries.c_str()},
                   &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("\"backend\": \"parallel\""), std::string::npos)
      << out;
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, MineRequiresInput) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--per=2"}, &out, &err), 1);
  EXPECT_NE(err.find("--input is required"), std::string::npos);
}

TEST(CliTest, MineUnknownFlag) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--bogus=1"}, &out, &err), 1);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  // The usage block follows the diagnosis exactly once.
  const size_t first = err.find("flags:\n");
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find("flags:\n", first + 1), std::string::npos) << err;
}

TEST(CliTest, MineRejectsUnknownOutputFormatBeforeReading) {
  // Checked with the flags, not after a full mine: the input never loads.
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input=/no/such/file", "--per=2",
                    "--output-format=xml"},
                   &out, &err),
            1);
  EXPECT_NE(err.find("unknown --output-format 'xml'"), std::string::npos)
      << err;
  EXPECT_TRUE(out.empty()) << out;
}

TEST(CliTest, OutOfRangeQueryFlagsAreUsageErrorsBeforeReading) {
  // Each value once mined something else: NaN and 1e30 % at minPS 1, a
  // 2^32 tolerance as the exact model, 2^44 MB as no memory budget.
  for (const char* bad :
       {"--min-ps-pct=nan", "--min-ps-pct=1e30", "--tolerance=4294967296",
        "--max-memory-mb=17592186044416"}) {
    std::string out, err;
    EXPECT_EQ(RunCli({"rpminer", "mine", "--input=/no/such/file", "--per=2",
                      "--min-ps=3", bad},
                     &out, &err),
              1)
        << bad;
    EXPECT_EQ(err.find("error:"), std::string::npos) << bad << ": " << err;
    EXPECT_TRUE(out.empty()) << out;
  }
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "compare", "--input=/no/such/file",
                    "--min-ps-pct=inf"},
                   &out, &err),
            1)
      << err;
  EXPECT_EQ(RunCli({"rpminer", "verify", "--fixed-params",
                    "--tolerance=4294967296"},
                   &out, &err),
            1)
      << err;
}

TEST(CliTest, MineRejectsRemovedStreamingBackend) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--min-rec=2", "--backend=streaming"},
                &out, &err),
            2);
  EXPECT_NE(err.find("InvalidArgument: unknown backend 'streaming'"),
            std::string::npos)
      << err;
  EXPECT_TRUE(out.empty()) << out;
  std::remove(path.c_str());
}

TEST(CliTest, MineMissingFileIsRuntimeError) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input=/no/such/file", "--per=2",
                 "--min-ps=3", "--min-rec=2"},
                &out, &err),
            2);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(CliTest, MinePaperExampleFindsTable2) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--min-rec=2"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(err.find("8 recurring patterns"), std::string::npos);
  EXPECT_NE(out.find("{a, b}"), std::string::npos);
  EXPECT_NE(out.find("{e, f}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineGateSummaryParsesAndMatchesRunCounters) {
  // Long ts-lists (>= 128 gaps) so the break-mask walk runs, next to
  // short ones that stay on the fused loop.
  std::vector<std::pair<Timestamp, Itemset>> rows;
  for (Timestamp t = 1; t <= 300; ++t) {
    Itemset items;
    if (t % 40 > 1) items.push_back(0);
    if (t % 5 != 0 && (t < 100 || t > 110)) items.push_back(1);
    if (t % 4 == 0) items.push_back(2);
    if (t < 20) items.push_back(3);
    rows.emplace_back(t, items);
  }
  ItemDictionary dict;
  for (const char* name : {"a", "b", "c", "d"}) dict.GetOrAdd(name);
  const std::string path =
      ::testing::TempDir() + "/rpminer_cli_gate_summary.tspmf";
  ASSERT_TRUE(
      WriteTimestampedSpmfFile(MakeDatabase(rows, dict), path).ok());

  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                    "--min-ps=5", "--min-rec=2"},
                   &out, &err),
            0)
      << err;
  // The exact format the end-to-end benchmark scans the summary with:
  // one word after "[gate ", then the two counters.
  const size_t gate = err.find("[gate ");
  ASSERT_NE(gate, std::string::npos) << err;
  unsigned long long lists = 0, gaps = 0;
  ASSERT_EQ(std::sscanf(err.c_str() + gate,
                        "[gate %*s %llu lists / %llu gaps", &lists, &gaps),
            2)
      << err;

  Result<TransactionDatabase> db = ReadTimestampedSpmfFile(path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RpParams params;
  params.period = 2;
  params.min_ps = 5;
  params.min_rec = 2;
  const RpGrowthResult run = MineRecurringPatterns(*db, params);
  EXPECT_EQ(lists, run.stats.gate_lists_scanned);
  EXPECT_EQ(gaps, run.stats.gate_gaps_scanned);
  EXPECT_GT(gaps, 128u);
  std::remove(path.c_str());
}

TEST(CliTest, MineJsonOutput) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--min-rec=2", "--output-format=json"},
                &out, &err),
            0);
  EXPECT_NE(out.find("\"support\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"items\": [\"a\", \"b\"]"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineCsvOutputWithPercentThreshold) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  // 25% of 12 transactions = 3 = the paper's minPS.
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps-pct=25", "--min-rec=2", "--output-format=csv"},
                &out, &err),
            0);
  EXPECT_NE(out.find("pattern,support"), std::string::npos);
  EXPECT_NE(out.find("a b,7,2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineClosedFiltersSubPatterns) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--min-rec=2", "--closed"},
                &out, &err),
            0);
  // 'b' alone is not closed (always with 'a'), so "{b}" must not appear.
  EXPECT_EQ(out.find("{b}"), std::string::npos);
  EXPECT_NE(out.find("{a, b}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineTopK) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--top-k=3"},
                &out, &err),
            0);
  EXPECT_NE(err.find("top-k: 3 patterns"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineWithStatsPrintsCoverage) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                    "--min-ps=3", "--min-rec=2", "--stats"},
                   &out, &err),
            0);
  EXPECT_NE(out.find("coverage="), std::string::npos);
  EXPECT_NE(out.find("concentration="), std::string::npos);
  EXPECT_NE(out.find("{a, b}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineWithEpochRendersDates) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--min-rec=2", "--epoch=2013-05-01"},
                &out, &err),
            0);
  EXPECT_NE(out.find("2013-05-01 00:01"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MineRejectsBadEpoch) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                 "--min-ps=3", "--epoch=yesterday"},
                &out, &err),
            2);
  std::remove(path.c_str());
}

TEST(CliTest, MineWithToleranceBridgesGaps) {
  // One item at ts 1..6 and 9..14 (hole at 7-8): strict mining at
  // minPS=10 finds nothing; tolerance 1 bridges the gap.
  std::string path = ::testing::TempDir() + "/rpminer_cli_tolerant.tspmf";
  {
    std::ofstream f(path);
    for (Timestamp ts : {1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14}) {
      f << ts << "|x\n";
    }
  }
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=1",
                    "--min-ps=10", "--min-rec=1"},
                   &out, &err),
            0);
  EXPECT_NE(err.find("0 recurring patterns"), std::string::npos);
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=1",
                    "--min-ps=10", "--min-rec=1", "--tolerance=1"},
                   &out, &err),
            0);
  EXPECT_NE(err.find("1 recurring patterns"), std::string::npos);
  EXPECT_NE(out.find("{x}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, StatsSummarisesDataset) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "stats", "--input", path.c_str()}, &out, &err),
            0);
  EXPECT_NE(out.find("12 transactions"), std::string::npos);
  EXPECT_NE(out.find("7 distinct items"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, AdviseSuggestsUsableThresholds) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "advise", "--input", path.c_str(),
                    "--min-item-support=5"},
                   &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("suggested: --per "), std::string::npos);
  EXPECT_NE(out.find("rationale:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PfMineFindsRegularPatterns) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "pf-mine", "--input", path.c_str(),
                 "--min-sup=6", "--max-per=3"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("sup="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PpMineCountsPatterns) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "pp-mine", "--input", path.c_str(), "--per=2",
                 "--min-sup=4"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(err.find("p-patterns"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, CompareRunsAllThreeModels) {
  std::string path = WritePaperExampleFile();
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "compare", "--input", path.c_str(),
                    "--per=2", "--min-sup-pct=30", "--min-ps-pct=25"},
                   &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("pf-patterns"), std::string::npos);
  EXPECT_NE(out.find("recurring-patterns"), std::string::npos);
  EXPECT_NE(out.find("p-patterns"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, GenerateToStdout) {
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "generate", "--dataset=shop14", "--scale=0.02",
                 "--seed=3"},
                &out, &err),
            0);
  EXPECT_NE(err.find("generated:"), std::string::npos);
  EXPECT_NE(out.find("|"), std::string::npos);  // tspmf lines.
}

TEST(CliTest, GenerateRejectsBadDataset) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "generate", "--dataset=imaginary"}, &out, &err),
            1);
}

TEST(CliTest, GenerateRejectsBadScale) {
  std::string out, err;
  EXPECT_EQ(
      RunCli({"rpminer", "generate", "--dataset=quest", "--scale=7"}, &out,
          &err),
      1);
}

TEST(CliTest, ConvertCsvToSpmf) {
  std::string csv_path = ::testing::TempDir() + "/rpminer_cli_events.csv";
  {
    std::ofstream f(csv_path);
    f << "timestamp,item\n1,x\n1,y\n3,x\n";
  }
  std::string out, err;
  ASSERT_EQ(
      RunCli({"rpminer", "convert", "--input", csv_path.c_str()}, &out, &err),
      0)
      << err;
  EXPECT_NE(out.find("1|x y"), std::string::npos);
  EXPECT_NE(out.find("3|x"), std::string::npos);
  EXPECT_NE(err.find("converted 2 transactions"), std::string::npos);
  std::remove(csv_path.c_str());
}

// --- mine --queries=FILE (multi-query sessions) -----------------------------

TEST(CliTest, MineQueriesSharesOneTreeBuildAcrossBackends) {
  std::string path = WritePaperExampleFile();
  // First line is the loosest (per, tolerance) point, so the planner's
  // one build serves the stricter re-queries on every backend.
  std::string queries = WriteQueriesFile(
      "# paper example sweep\n"
      "--per=2 --min-ps=3 --min-rec=2\n"
      "\n"
      "--per=2 --min-ps=4 --min-rec=2 --backend=parallel --threads=2\n"
      "--per=2 --min-ps=3 --min-rec=3 --backend=windowed --window=100\n");
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 queries.c_str()},
                &out, &err),
            0)
      << err;
  // One snapshot, one build; the windowed backend maintains its own
  // structures outside the planner so it neither reuses nor adds builds.
  EXPECT_NE(err.find("3 queries against one snapshot, 1 tree build(s)"),
            std::string::npos)
      << err;
  EXPECT_NE(out.find("\"tree_builds\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"tree_reused\": true"), std::string::npos);
  EXPECT_NE(out.find("\"backend\": \"parallel\""), std::string::npos);
  EXPECT_NE(out.find("\"backend\": \"windowed\""), std::string::npos);
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, MineQueriesEmbedsPatternsByteIdenticalToStandaloneRuns) {
  std::string path = WritePaperExampleFile();
  std::string queries = WriteQueriesFile(
      "--per=2 --min-ps=3 --min-rec=2\n"
      "--per=2 --min-ps=4 --min-rec=2\n"
      "--per=2 --min-ps=3 --top-k=3\n");
  std::string multi_out, err;
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 queries.c_str()},
                &multi_out, &err),
            0)
      << err;
  // Each query's embedded "patterns" array must be byte-identical to the
  // standalone single-query JSON output (reused trees included).
  auto expect_embedded = [&](std::initializer_list<const char*> args) {
    std::string solo_out, solo_err;
    ASSERT_EQ(RunCli(args, &solo_out, &solo_err), 0) << solo_err;
    ASSERT_FALSE(solo_out.empty());
    EXPECT_NE(multi_out.find(solo_out), std::string::npos)
        << "standalone JSON not embedded verbatim:\n"
        << solo_out;
  };
  expect_embedded({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                   "--min-ps=3", "--min-rec=2", "--output-format=json"});
  expect_embedded({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                   "--min-ps=4", "--min-rec=2", "--output-format=json"});
  expect_embedded({"rpminer", "mine", "--input", path.c_str(), "--per=2",
                   "--min-ps=3", "--top-k=3", "--output-format=json"});
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, MineQueriesReportsFailingLineNumber) {
  std::string path = WritePaperExampleFile();
  std::string queries = WriteQueriesFile(
      "# comment\n"
      "--per=2 --min-ps=3 --min-rec=2\n"
      "--per=2 --bogus=1\n");
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 queries.c_str()},
                &out, &err),
            2);
  EXPECT_NE(err.find("--queries line 3"), std::string::npos) << err;
  // A bad line reports its diagnosis, not the whole flag table.
  EXPECT_EQ(err.find("flags:"), std::string::npos) << err;
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, MineQueriesRejectsEmptyFileAndBadBackendModel) {
  std::string path = WritePaperExampleFile();
  std::string empty = WriteQueriesFile("# only comments\n\n");
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 empty.c_str()},
                &out, &err),
            2);
  EXPECT_NE(err.find("no query lines"), std::string::npos);

  // Windowed is exact-model only; the error carries the line number.
  std::string tolerant = WriteQueriesFile(
      "--per=2 --min-ps=3 --min-rec=2 --tolerance=1 --backend=windowed "
      "--window=100\n");
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 tolerant.c_str()},
                &out, &err),
            2);
  EXPECT_NE(err.find("--queries line 1"), std::string::npos) << err;
  std::remove(path.c_str());
  std::remove(empty.c_str());
  std::remove(tolerant.c_str());
}

TEST(CliTest, MineQueriesRejectsALineWithoutMinPs) {
  std::string path = WritePaperExampleFile();
  std::string queries = WriteQueriesFile(
      "--per=2 --min-ps=3 --min-rec=2\n"
      "--per=2 --min-rec=2\n");
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                    queries.c_str()},
                   &out, &err),
            2);
  EXPECT_NE(err.find("--queries line 2: a query needs --min-ps"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, MineQueriesRejectsRemovedStreamingBackend) {
  std::string path = WritePaperExampleFile();
  std::string queries = WriteQueriesFile(
      "--per=2 --min-ps=3 --min-rec=2\n"
      "--per=2 --min-ps=3 --min-rec=2 --backend=streaming\n");
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--queries",
                 queries.c_str()},
                &out, &err),
            2);
  EXPECT_NE(err.find("InvalidArgument: --queries line 2: unknown backend "
                     "'streaming'"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
  std::remove(queries.c_str());
}

TEST(CliTest, VerifyFixedParamsPinsEveryCase) {
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "verify", "--cases=6", "--seed=3",
                 "--fixed-params", "--per=2", "--min-ps=2"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("result: OK"), std::string::npos);
  EXPECT_NE(out.find("engine 6"), std::string::npos);
  // The windowed family runs on every case too: fixed params are
  // exact-model.
  EXPECT_NE(out.find("windowed 6"), std::string::npos);
}

TEST(CliTest, VerifyFixedParamsRejectsPercentAndFilterFlags) {
  std::string out, err;
  EXPECT_EQ(RunCli({"rpminer", "verify", "--cases=2", "--fixed-params",
                 "--per=2", "--min-ps-pct=10"},
                &out, &err),
            1);
  EXPECT_EQ(RunCli({"rpminer", "verify", "--cases=2", "--fixed-params",
                 "--per=2", "--top-k=3"},
                &out, &err),
            1);
}

TEST(CliTest, MineRoundTripThroughGenerate) {
  std::string path = ::testing::TempDir() + "/rpminer_cli_gen.tspmf";
  std::string out, err;
  ASSERT_EQ(RunCli({"rpminer", "generate", "--dataset=twitter", "--scale=0.01",
                 "--output", path.c_str()},
                &out, &err),
            0);
  ASSERT_EQ(RunCli({"rpminer", "mine", "--input", path.c_str(), "--per=60",
                 "--min-ps-pct=2", "--min-rec=1"},
                &out, &err),
            0)
      << err;
  EXPECT_NE(err.find("recurring patterns"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpm::tools
