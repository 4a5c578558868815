// Regression tests for the shared mining-threshold flag set. Every
// subcommand (mine, verify --fixed-params, compare, the --queries lines)
// parses thresholds through MiningQueryFlags, so the defaults and the
// minPS resolution rule pinned here are THE CLI contract — change them
// and every entry point changes together.

#include "rpm/tools/mining_flags.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "rpm/common/flags.h"
#include "rpm/engine/executor.h"

namespace rpm::tools {
namespace {

Status ParseTokens(FlagParser* parser,
                   const std::vector<std::string>& flag_tokens) {
  std::vector<const char*> argv = {"test"};
  for (const std::string& token : flag_tokens) argv.push_back(token.c_str());
  return parser->Parse(static_cast<int>(argv.size()), argv.data());
}

engine::Query ParseOrDie(const std::vector<std::string>& flag_tokens,
                         size_t db_size) {
  MiningQueryFlags flags;
  FlagParser parser("test", "mining flag test");
  flags.Register(&parser);
  Status parsed = ParseTokens(&parser, flag_tokens);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  Result<engine::Query> query = flags.ToQuery(db_size);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *query;
}

TEST(MiningFlagsTest, PinnedDefaults) {
  MiningQueryFlags flags;
  EXPECT_EQ(flags.per, 1);
  EXPECT_EQ(flags.min_ps, 0u);
  EXPECT_EQ(flags.min_ps_pct, -1.0);
  EXPECT_EQ(flags.min_rec, 1u);
  EXPECT_EQ(flags.tolerance, 0u);
  EXPECT_EQ(flags.top_k, 0u);
  EXPECT_EQ(flags.max_len, 0u);
  EXPECT_FALSE(flags.closed);
  EXPECT_FALSE(flags.maximal);
  EXPECT_EQ(flags.timeout_ms, 0u);
  EXPECT_EQ(flags.max_memory_mb, 0u);
  EXPECT_EQ(flags.max_patterns, 0u);
  EXPECT_EQ(flags.window, 0);
  EXPECT_EQ(flags.delta, 0u);
}

TEST(MiningFlagsTest, DefaultQueryIsPerOneMinPsOneMinRecOne) {
  engine::Query q = ParseOrDie({}, /*db_size=*/100);
  EXPECT_EQ(q.params.period, 1);
  // minPS=0 resolves to 1 — "any pattern at all" rather than an error.
  EXPECT_EQ(q.params.min_ps, 1u);
  EXPECT_EQ(q.params.min_rec, 1u);
  EXPECT_EQ(q.params.max_gap_violations, 0u);
  EXPECT_EQ(q.top_k, 0u);
  EXPECT_EQ(q.max_pattern_length, 0u);
  EXPECT_FALSE(q.closed);
  EXPECT_FALSE(q.maximal);
  EXPECT_TRUE(q.store_patterns);
  EXPECT_TRUE(q.limits.unlimited());
  EXPECT_EQ(q.cancel, nullptr);
}

TEST(MiningFlagsTest, GovernanceFlagsFlowIntoQueryLimits) {
  engine::Query q = ParseOrDie(
      {"--per=2", "--timeout-ms=1500", "--max-memory-mb=64",
       "--max-patterns=1000"},
      /*db_size=*/100);
  EXPECT_EQ(q.limits.timeout_ms, 1500);
  EXPECT_EQ(q.limits.memory_budget_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(q.limits.max_patterns, 1000u);
  EXPECT_FALSE(q.limits.unlimited());
}

TEST(MiningFlagsTest, WindowAndDeltaFlowIntoQuery) {
  engine::Query q = ParseOrDie({"--per=2", "--window=500", "--delta=100"},
                               /*db_size=*/100);
  EXPECT_EQ(q.window, 500);
  EXPECT_EQ(q.delta, 100u);
}

TEST(MiningFlagsTest, DeltaWithoutWindowRejected) {
  MiningQueryFlags flags;
  flags.delta = 10;
  EXPECT_FALSE(flags.ToQuery(100).ok());
  flags.window = 500;
  EXPECT_TRUE(flags.ToQuery(100).ok());
}

TEST(MiningFlagsTest, NegativeWindowRejected) {
  MiningQueryFlags flags;
  flags.window = -1;
  EXPECT_FALSE(flags.ToQuery(100).ok());
}

TEST(MiningFlagsTest, MaxPatternsRejectedWithTopK) {
  MiningQueryFlags flags;
  flags.per = 2;
  flags.top_k = 5;
  flags.max_patterns = 10;
  EXPECT_FALSE(flags.ToQuery(100).ok());
}

TEST(MiningFlagsTest, ExplicitThresholdsFlowThrough) {
  engine::Query q = ParseOrDie(
      {"--per=3", "--min-ps=4", "--min-rec=2", "--tolerance=1",
       "--max-length=5", "--closed"},
      /*db_size=*/100);
  EXPECT_EQ(q.params.period, 3);
  EXPECT_EQ(q.params.min_ps, 4u);
  EXPECT_EQ(q.params.min_rec, 2u);
  EXPECT_EQ(q.params.max_gap_violations, 1u);
  EXPECT_EQ(q.max_pattern_length, 5u);
  EXPECT_TRUE(q.closed);
}

TEST(MiningFlagsTest, MinPsPctResolvesAgainstDatabaseSizeCeil) {
  // ceil(2% of 3541) = ceil(70.82) = 71 — the compare-subcommand default
  // resolution on the scaled twitter set.
  engine::Query q = ParseOrDie({"--min-ps-pct=2"}, /*db_size=*/3541);
  EXPECT_EQ(q.params.min_ps, 71u);
  // Exact multiples don't round up.
  EXPECT_EQ(ParseOrDie({"--min-ps-pct=10"}, 50).params.min_ps, 5u);
  // --min-ps-pct overrides --min-ps when both are given.
  EXPECT_EQ(ParseOrDie({"--min-ps=9", "--min-ps-pct=10"}, 50).params.min_ps,
            5u);
  // Tiny fractions still resolve to at least 1.
  EXPECT_EQ(ParseOrDie({"--min-ps-pct=0.001"}, 50).params.min_ps, 1u);
}

/// The error for `flag_tokens`, which must parse but hold a value out of
/// range: CheckRanges (run before any input is read) and ToQuery both
/// refuse them.
Status RangeError(const std::vector<std::string>& flag_tokens) {
  MiningQueryFlags flags;
  FlagParser parser("test", "mining flag test");
  flags.Register(&parser);
  Status parsed = ParseTokens(&parser, flag_tokens);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_FALSE(flags.ToQuery(/*db_size=*/100).ok());
  return flags.CheckRanges();
}

TEST(MiningFlagsTest, MinPsPctMustBeAFinitePercentage) {
  // NaN fails both the ">= 0" and the "< 0" test, and 1e30 % of the
  // database overflows the cast to uint64_t: either would mine at minPS 1.
  for (const char* bad : {"--min-ps-pct=nan", "--min-ps-pct=inf",
                          "--min-ps-pct=-inf", "--min-ps-pct=1e30",
                          "--min-ps-pct=100.5", "--min-ps-pct=-5"}) {
    Status s = RangeError({"--per=2", bad});
    EXPECT_TRUE(s.IsInvalidArgument()) << bad << ": " << s.ToString();
    EXPECT_NE(s.message().find("--min-ps-pct"), std::string::npos) << bad;
  }
  EXPECT_EQ(ParseOrDie({"--min-ps-pct=0"}, 50).params.min_ps, 1u);
  EXPECT_EQ(ParseOrDie({"--min-ps-pct=100"}, 50).params.min_ps, 50u);
}

TEST(MiningFlagsTest, LimitsTheQueryCannotHoldAreRejected) {
  // (--timeout-ms above 2^63 - 1 already fails to parse.)
  for (const char* bad :
       {"--tolerance=4294967296", "--max-memory-mb=17592186044416"}) {
    Status s = RangeError({"--per=2", "--min-ps=2", bad});
    EXPECT_TRUE(s.IsInvalidArgument()) << bad << ": " << s.ToString();
    EXPECT_NE(s.message().find("out of range"), std::string::npos) << bad;
  }
  // The largest values that fit pass through unchanged.
  engine::Query q = ParseOrDie(
      {"--per=2", "--tolerance=4294967295",
       "--timeout-ms=9223372036854775807", "--max-memory-mb=17592186044415"},
      /*db_size=*/100);
  EXPECT_EQ(q.params.max_gap_violations, 4294967295u);
  EXPECT_EQ(q.limits.timeout_ms, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(q.limits.memory_budget_bytes, 17592186044415ull << 20);
}

TEST(MiningFlagsTest, ToQueryValidates) {
  MiningQueryFlags flags;
  flags.per = 0;  // Invalid period.
  EXPECT_FALSE(flags.ToQuery(10).ok());
}

TEST(MiningFlagsTest, MutatedDefaultsAreAdvertised) {
  // The compare subcommand presents dataset-scale defaults by mutating
  // fields before Register(); parsing nothing must then yield them.
  MiningQueryFlags flags;
  flags.per = 1440;
  flags.min_ps_pct = 2.0;
  FlagParser parser("test", "mining flag test");
  flags.Register(&parser);
  ASSERT_TRUE(ParseTokens(&parser, {}).ok());
  Result<engine::Query> q = flags.ToQuery(/*db_size=*/1000);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->params.period, 1440);
  EXPECT_EQ(q->params.min_ps, 20u);
}

// --- ParseMiningQuery (one --queries file line) -----------------------------

TEST(ParseMiningQueryTest, ParsesThresholdsBackendAndThreads) {
  Result<ParsedQueryLine> line = ParseMiningQuery(
      "--per=2 --min-ps=4 --min-rec=2 --backend=parallel --threads=4",
      /*db_size=*/100);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->query.params.period, 2);
  EXPECT_EQ(line->query.params.min_ps, 4u);
  EXPECT_EQ(line->query.params.min_rec, 2u);
  EXPECT_EQ(line->backend, engine::BackendKind::kParallel);
  EXPECT_EQ(line->threads, 4u);
}

TEST(ParseMiningQueryTest, DefaultsMatchTheMineSubcommand) {
  // Like `mine`, a line must name a minPS: without one every itemset of a
  // real dataset is a candidate.
  Result<ParsedQueryLine> bare = ParseMiningQuery("--per=2", 100);
  ASSERT_FALSE(bare.ok());
  EXPECT_TRUE(bare.status().IsInvalidArgument()) << bare.status().ToString();
  EXPECT_NE(bare.status().message().find("--min-ps "), std::string::npos)
      << bare.status().ToString();
  EXPECT_NE(bare.status().message().find("--min-ps-pct"), std::string::npos)
      << bare.status().ToString();

  Result<ParsedQueryLine> line = ParseMiningQuery("--per=2 --min-ps=1", 100);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->query.params.min_ps, 1u);
  EXPECT_EQ(line->query.params.min_rec, 1u);
  EXPECT_EQ(line->backend, engine::BackendKind::kSequential);
  EXPECT_EQ(line->threads, 1u);
}

TEST(ParseMiningQueryTest, ThreadsPickTheBackendLikeTheMineCommandLine) {
  // `mine --threads=4` runs the parallel backend; so does the same line.
  Result<ParsedQueryLine> line =
      ParseMiningQuery("--per=2 --min-ps=1 --threads=4", 100);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->backend, engine::BackendKind::kParallel);
  EXPECT_EQ(line->threads, 4u);

  MiningQueryFlags mining;
  mining.per = 2;
  mining.min_ps = 1;
  ExecFlags exec;
  exec.threads = 4;
  Result<ParsedQueryLine> command_line = ResolveQuery(mining, exec, 100);
  ASSERT_TRUE(command_line.ok());
  EXPECT_EQ(command_line->backend, line->backend);
  EXPECT_EQ(command_line->threads, line->threads);
}

TEST(ParseMiningQueryTest, RejectsAThreadCountTheBackendIgnores) {
  for (const char* backend : {"sequential", "windowed"}) {
    Result<ParsedQueryLine> line = ParseMiningQuery(
        std::string("--per=2 --window=10 --threads=4 --backend=") + backend,
        100);
    ASSERT_FALSE(line.ok()) << backend;
    EXPECT_NE(line.status().message().find("--threads=4"), std::string::npos)
        << line.status().ToString();
    EXPECT_NE(line.status().message().find("--backend="), std::string::npos)
        << line.status().ToString();
  }
  EXPECT_TRUE(ParseMiningQuery(
                  "--per=2 --min-ps=1 --threads=1 --backend=sequential", 100)
                  .ok());
  EXPECT_TRUE(ParseMiningQuery(
                  "--per=2 --min-ps=1 --threads=0 --backend=parallel", 100)
                  .ok());
}

TEST(ParseMiningQueryTest, SharesTheMinPsPctResolution) {
  Result<ParsedQueryLine> line =
      ParseMiningQuery("--per=2 --min-ps-pct=10", /*db_size=*/50);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->query.params.min_ps, 5u);
}

TEST(ParseMiningQueryTest, WindowedBackendLine) {
  Result<ParsedQueryLine> line = ParseMiningQuery(
      "--per=2 --min-ps=3 --min-rec=2 --backend=windowed --window=500 "
      "--delta=50",
      /*db_size=*/100);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->backend, engine::BackendKind::kWindowed);
  EXPECT_EQ(line->query.window, 500);
  EXPECT_EQ(line->query.delta, 50u);
}

TEST(ParseMiningQueryTest, RejectsUnknownFlagsAndPositionals) {
  EXPECT_FALSE(ParseMiningQuery("--per=2 --bogus=1", 100).ok());
  EXPECT_FALSE(ParseMiningQuery("--per=2 sneaky", 100).ok());
  EXPECT_FALSE(ParseMiningQuery("--per=2 --backend=warp", 100).ok());
}

TEST(ParseMiningQueryTest, RejectsRemovedStreamingBackend) {
  Result<ParsedQueryLine> line =
      ParseMiningQuery("--per=2 --backend=streaming", 100);
  ASSERT_FALSE(line.ok());
  EXPECT_TRUE(line.status().IsInvalidArgument()) << line.status().ToString();
}

TEST(ParseMiningQueryTest, TopKLine) {
  Result<ParsedQueryLine> line =
      ParseMiningQuery("--per=2 --min-ps=3 --top-k=5", 100);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->query.top_k, 5u);
}

}  // namespace
}  // namespace rpm::tools
