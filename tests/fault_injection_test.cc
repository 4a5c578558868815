// Tests for the seeded fault-injection framework (DESIGN.md §7.4): the
// injector's fire decisions must be a pure function of (seed, site, hit
// index), a campaign must print the same counts on every run of one seed
// (parallel mines included), and the campaign driver itself must hold
// the library to its fault contract.

#include "rpm/verify/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rpm/common/failpoint.h"

namespace rpm {
namespace {

/// Records the fire pattern of `hits` consecutive hits on `site`.
std::vector<bool> FirePattern(const FaultInjectionOptions& options,
                              const char* site, size_t hits) {
  ScopedFaultInjection scope(options);
  std::vector<bool> fired;
  fired.reserve(hits);
  for (size_t i = 0; i < hits; ++i) {
    fired.push_back(FailpointTriggered(site));
  }
  return fired;
}

TEST(FaultInjectorTest, DisarmedSitesNeverFire) {
  ASSERT_FALSE(FaultInjector::Instance().armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FailpointTriggered("rptree.alloc"));
  }
}

TEST(FaultInjectorTest, SameSeedSameFirePattern) {
  FaultInjectionOptions options;
  options.seed = 42;
  options.probability_ppm = 100000;  // 10% — dense enough to compare.
  const std::vector<bool> first = FirePattern(options, "io.read", 400);
  const std::vector<bool> second = FirePattern(options, "io.read", 400);
  EXPECT_EQ(first, second);
  // And the pattern is not degenerate: some hits fire, some don't.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjectionOptions a;
  a.seed = 1;
  a.probability_ppm = 100000;
  FaultInjectionOptions b = a;
  b.seed = 2;
  EXPECT_NE(FirePattern(a, "io.read", 400), FirePattern(b, "io.read", 400));
}

TEST(FaultInjectorTest, SitesAreIndependentStreams) {
  FaultInjectionOptions options;
  options.seed = 42;
  options.probability_ppm = 100000;
  EXPECT_NE(FirePattern(options, "io.read", 400),
            FirePattern(options, "rptree.alloc", 400));
}

TEST(FaultInjectorTest, FireOnNthFiresExactlyOnThatHit) {
  FaultInjectionOptions options;
  options.fire_on_nth = 7;
  const std::vector<bool> fired = FirePattern(options, "clock.skip", 20);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], i + 1 == 7) << "hit " << i + 1;
  }
}

TEST(FaultInjectorTest, SiteFilterBlocksOtherSites) {
  FaultInjectionOptions options;
  options.site_filter = "io.read";
  options.fire_on_nth = 1;
  ScopedFaultInjection scope(options);
  EXPECT_FALSE(FailpointTriggered("rptree.alloc"));
  EXPECT_FALSE(FailpointTriggered("threadpool.spawn"));
  EXPECT_TRUE(FailpointTriggered("io.read"));
}

TEST(FaultInjectorTest, CountersTrackHitsAndFires) {
  FaultInjectionOptions options;
  options.fire_on_nth = 3;
  ScopedFaultInjection scope(options);
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_EQ(injector.hits(), 0u);  // Arm resets counters.
  EXPECT_EQ(injector.fires(), 0u);
  for (int i = 0; i < 5; ++i) FailpointTriggered("io.read");
  for (int i = 0; i < 3; ++i) FailpointTriggered("rptree.alloc");
  EXPECT_EQ(injector.hits(), 8u);
  EXPECT_EQ(injector.fires(), 2u);  // 3rd hit of each site fired.
  const auto counts = injector.SiteCounts();
  ASSERT_EQ(counts.count("io.read"), 1u);
  EXPECT_EQ(counts.at("io.read").first, 5u);
  EXPECT_EQ(counts.at("io.read").second, 1u);
  EXPECT_EQ(counts.at("rptree.alloc").first, 3u);
  EXPECT_EQ(counts.at("rptree.alloc").second, 1u);
}

TEST(FaultInjectorTest, DisarmStopsFiringButKeepsCounters) {
  FaultInjectionOptions options;
  options.fire_on_nth = 1;
  FaultInjector& injector = FaultInjector::Instance();
  {
    ScopedFaultInjection scope(options);
    EXPECT_TRUE(FailpointTriggered("io.read"));
  }
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(FailpointTriggered("io.read"));
  EXPECT_EQ(injector.fires(), 1u);  // Survives until the next Arm.
}

// --- Campaign smoke ---------------------------------------------------------

TEST(FaultCampaignTest, SmallCampaignPassesAndInjectsFaults) {
  FaultCampaignOptions options;
  options.trials = 25;
  options.seed = 7;
  FaultCampaignReport report = RunFaultCampaign(options);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.trials_run, 25u);
  EXPECT_GT(report.faulted_operations, 0u);
  // With the default 2% per-hit rate, 25 trials reliably fire at least one
  // fault; a campaign that injects nothing is testing nothing.
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_NE(report.ToString().find("[PASS]"), std::string::npos);
}

TEST(FaultCampaignTest, CampaignIsDeterministicForASeed) {
  FaultCampaignOptions options;
  options.trials = 10;
  options.seed = 99;
  FaultCampaignReport a = RunFaultCampaign(options);
  FaultCampaignReport b = RunFaultCampaign(options);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faulted_operations, b.faulted_operations);
  EXPECT_EQ(a.clean_recoveries, b.clean_recoveries);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(FaultCampaignTest, ParallelFaultsReplayTheSameCountsFromTheSeed) {
  // Seed 7's first 40 trials include faulted parallel mines: the first
  // fault stops the other workers at schedule-dependent points, so how
  // many hits follow it varies from run to run. With one armed scope per
  // trial and no cap on fires, those hits fired further faults and
  // shifted the fire decisions of the operations after them, and back-
  // to-back runs printed different fault counts.
  FaultCampaignOptions options;
  options.trials = 40;
  options.seed = 7;
  const FaultCampaignReport first = RunFaultCampaign(options);
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_GT(first.faults_injected, 0u);
  for (int run = 0; run < 2; ++run) {
    const FaultCampaignReport again = RunFaultCampaign(options);
    EXPECT_EQ(again.ToString(), first.ToString()) << "run " << run;
  }
}

TEST(FaultInjectorTest, MaxFiresStopsFiringButKeepsCountingHits) {
  FaultInjectionOptions options;
  options.seed = 3;
  options.probability_ppm = 1000000;  // Every hit would fire.
  options.max_fires = 2;
  ScopedFaultInjection armed(options);
  FaultInjector& injector = FaultInjector::Instance();
  EXPECT_TRUE(injector.ShouldFail("rptree.alloc"));
  EXPECT_TRUE(injector.ShouldFail("io.read"));
  EXPECT_FALSE(injector.ShouldFail("rptree.alloc"));
  EXPECT_FALSE(injector.ShouldFail("worker.task"));
  EXPECT_EQ(injector.fires(), 2u);
  EXPECT_EQ(injector.hits(), 4u);
}

}  // namespace
}  // namespace rpm
