// QueryService end-to-end, no sockets: one request line in, one
// structured response line out. Covers the full op surface, the cache /
// coalescing / epoch interplay, tenant quota clamping, byte-determinism
// of meta-free replies, and drain semantics.

#include "rpm/serve/service.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "rpm/core/thread_pool.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/engine/snapshot_registry.h"
#include "rpm/serve/protocol.h"
#include "rpm/serve/tenant_registry.h"
#include "rpm/serve/wire.h"
#include "test_util.h"

namespace rpm::serve {
namespace {

/// Parses a response line (every response must parse) and returns it.
JsonValue MustParse(const std::string& line) {
  Result<JsonValue> v = ParseJson(line);
  EXPECT_TRUE(v.ok()) << "unparseable response: " << line;
  return v.ok() ? std::move(*v) : JsonValue{};
}

std::string StatusOf(const JsonValue& response) {
  const JsonValue* status = response.Find("status");
  return status != nullptr ? status->string_value : "<missing>";
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .Register("paper", engine::DatasetSnapshot::Create(
                                           rpm::testing::PaperExampleDb()))
                    .ok());
  }

  QueryService MakeService(TenantQuotas quotas = {},
                           QueryService::Options options = {}) {
    return QueryService(&registry_, TenantRegistry(quotas), options);
  }

  /// The paper's running-example query (Table 2: 6 patterns).
  static std::string PaperQuery(const std::string& id,
                                const std::string& extra = "") {
    return "{\"op\":\"query\",\"id\":\"" + id +
           "\",\"dataset\":\"paper\",\"per\":2,\"min_ps\":3,"
           "\"min_rec\":2" + extra + "}";
  }

  engine::SnapshotRegistry registry_;
};

TEST_F(ServiceTest, PingEchoesIdWithOk) {
  QueryService service = MakeService();
  JsonValue r =
      MustParse(service.HandleLine("{\"op\":\"ping\",\"id\":\"p1\"}"));
  EXPECT_EQ(StatusOf(r), "OK");
  EXPECT_EQ(r.Find("id")->string_value, "p1");
}

TEST_F(ServiceTest, MalformedAndUnknownInputsAreStructuredErrors) {
  QueryService service = MakeService();
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine("{broken"))),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine("{\"op\":\"nope\"}"))),
            "INVALID_ARGUMENT");
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine(PaperQuery("q").replace(
                PaperQuery("q").find("paper"), 5, "ghost")))),
            "NOT_FOUND");
  // Oversized line: rejected before parsing, still one response line.
  std::string huge(kMaxJsonBytes + 1, 'x');
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine(huge))),
            "INVALID_ARGUMENT");
}

TEST_F(ServiceTest, QueryMatchesPaperExampleAndCaches) {
  QueryService service = MakeService();
  JsonValue first = MustParse(service.HandleLine(PaperQuery("q1")));
  ASSERT_EQ(StatusOf(first), "OK");
  EXPECT_EQ(first.Find("pattern_count")->integer,
            static_cast<int64_t>(rpm::testing::PaperExamplePatterns().size()));
  EXPECT_FALSE(first.Find("truncated")->bool_value);
  const JsonValue* meta = first.Find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("cache")->string_value, "miss");
  EXPECT_EQ(meta->Find("epoch")->integer, 1);
  EXPECT_EQ(meta->Find("backend")->string_value, "sequential");

  // The patterns_json field unescapes to non-empty JSON (the exact bytes
  // `rpminer mine --output-format=json` writes; pinned in the soak).
  EXPECT_NE(first.Find("patterns_json")->string_value.find("\"items\""),
            std::string::npos);

  JsonValue second = MustParse(service.HandleLine(PaperQuery("q2")));
  EXPECT_EQ(second.Find("meta")->Find("cache")->string_value, "hit");
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
}

TEST_F(ServiceTest, MetaFreeRepliesAreByteIdenticalAcrossCacheStates) {
  QueryService service = MakeService();
  const std::string request = PaperQuery("q", ",\"meta\":false");
  const std::string computed = service.HandleLine(request);
  const std::string cached = service.HandleLine(request);
  // The determinism contract the fault campaign byte-compares on: the
  // reply must not betray whether it was computed or served from cache.
  EXPECT_EQ(computed, cached);
  EXPECT_EQ(MustParse(computed).Find("meta"), nullptr);
}

TEST_F(ServiceTest, BackendsAgreeOnTheWire) {
  QueryService service = MakeService();
  const std::string sequential =
      service.HandleLine(PaperQuery("q", ",\"meta\":false"));
  // Different backend => same cache key => served as a hit; flush the
  // comparison through a fresh service to force both to compute.
  QueryService fresh = MakeService();
  const std::string parallel = fresh.HandleLine(PaperQuery(
      "q", ",\"meta\":false,\"backend\":\"parallel\",\"threads\":2"));
  EXPECT_EQ(sequential, parallel);
}

TEST_F(ServiceTest, TruncatedResultsAreNeverCached) {
  TenantQuotas quotas;
  quotas.max_patterns = 1;  // Every query is clamped to one pattern.
  QueryService service = MakeService(quotas);
  JsonValue first = MustParse(service.HandleLine(PaperQuery("q1")));
  ASSERT_EQ(StatusOf(first), "OK");
  EXPECT_TRUE(first.Find("truncated")->bool_value);
  // Prefix-commit semantics: the cap keeps strictly fewer patterns than
  // the full answer (Table 2 has 6).
  EXPECT_LT(first.Find("pattern_count")->integer,
            static_cast<int64_t>(rpm::testing::PaperExamplePatterns().size()));
  // The truncated payload reflects this tenant's budget, so the repeat
  // must recompute, not hit.
  JsonValue second = MustParse(service.HandleLine(PaperQuery("q2")));
  EXPECT_EQ(second.Find("meta")->Find("cache")->string_value, "miss");
  EXPECT_EQ(service.cache_stats().hits, 0u);
}

TEST_F(ServiceTest, CappedTenantIsNotServedAnUncappedCachedAnswer) {
  TenantRegistry tenants;
  std::istringstream config(
      "{\"tenant\": \"capped\", \"max_patterns\": 1}\n");
  ASSERT_TRUE(tenants.LoadConfig(config).ok());
  QueryService service(&registry_, std::move(tenants), {});
  // An uncapped tenant caches the full answer first...
  JsonValue full = MustParse(service.HandleLine(PaperQuery("q1")));
  ASSERT_EQ(StatusOf(full), "OK");
  EXPECT_FALSE(full.Find("truncated")->bool_value);
  // ...and the same shape from a tenant capped at one pattern must still
  // get a capped, truncated answer, not the cached full one.
  JsonValue capped = MustParse(
      service.HandleLine(PaperQuery("q2", ",\"tenant\":\"capped\"")));
  ASSERT_EQ(StatusOf(capped), "OK");
  EXPECT_TRUE(capped.Find("truncated")->bool_value);
  EXPECT_LE(capped.Find("pattern_count")->integer, 1);
  EXPECT_EQ(capped.Find("meta")->Find("cache")->string_value, "miss");
}

TEST_F(ServiceTest, ThreadCountIsCappedAtTheHardware) {
  // hw + 2 items that each recur alone (item i at i + 1, i + 1 + n, ...):
  // hw + 2 top-level subproblems, so an uncapped request would start
  // hw + 2 workers.
  const size_t hw = ResolveThreadCount(0);
  const size_t n = hw + 2;
  ItemDictionary dict;
  std::vector<std::pair<Timestamp, Itemset>> rows;
  for (size_t i = 0; i < n; ++i) dict.GetOrAdd(std::to_string(i));
  for (size_t t = 0; t < 4 * n; ++t) {
    rows.push_back({static_cast<Timestamp>(t + 1),
                    {static_cast<ItemId>(t % n)}});
  }
  ASSERT_TRUE(registry_
                  .Register("solo", engine::DatasetSnapshot::Create(
                                        MakeDatabase(rows, std::move(dict))))
                  .ok());
  std::string query = "{\"op\":\"query\",\"dataset\":\"solo\",\"per\":";
  query += std::to_string(n);
  query += ",\"min_ps\":2,\"backend\":\"parallel\"";
  QueryService service = MakeService();
  JsonValue capped = MustParse(service.HandleLine(
      query + ",\"threads\":" + std::to_string(n) + "}"));
  ASSERT_EQ(StatusOf(capped), "OK");
  EXPECT_EQ(capped.Find("pattern_count")->integer, static_cast<int64_t>(n));
  EXPECT_EQ(capped.Find("meta")->Find("threads_used")->integer,
            static_cast<int64_t>(hw));
  // The answer is the one a single thread gives.
  const std::string bare = ",\"meta\":false}";
  EXPECT_EQ(MakeService().HandleLine(query + ",\"threads\":1" + bare),
            MakeService().HandleLine(query + ",\"threads\":" +
                                     std::to_string(n) + bare));
}

TEST_F(ServiceTest, SwapBumpsEpochAndInvalidatesCache) {
  QueryService service = MakeService();
  ASSERT_EQ(StatusOf(MustParse(service.HandleLine(PaperQuery("q1")))),
            "OK");

  // Hot-swap "paper" for a 3-transaction dataset written on the fly.
  const std::string path = ::testing::TempDir() + "/serve_swap.tspmf";
  {
    std::ofstream out(path);
    out << "1|a b\n3|a b\n5|a b\n";
  }
  JsonValue swap = MustParse(service.HandleLine(
      "{\"op\":\"swap\",\"id\":\"s1\",\"dataset\":\"paper\",\"path\":\"" +
      path + "\"}"));
  ASSERT_EQ(StatusOf(swap), "OK");
  EXPECT_EQ(swap.Find("epoch")->integer, 2);
  EXPECT_EQ(swap.Find("transactions")->integer, 3);

  // Same query shape, new epoch: the old cache entry can never match.
  JsonValue requery = MustParse(service.HandleLine(PaperQuery("q2")));
  ASSERT_EQ(StatusOf(requery), "OK");
  EXPECT_EQ(requery.Find("meta")->Find("cache")->string_value, "miss");
  EXPECT_EQ(requery.Find("meta")->Find("epoch")->integer, 2);

  // Swapping a fresh name registers it (register-or-swap).
  JsonValue add = MustParse(service.HandleLine(
      "{\"op\":\"swap\",\"id\":\"s2\",\"dataset\":\"tiny\",\"path\":\"" +
      path + "\"}"));
  ASSERT_EQ(StatusOf(add), "OK");
  EXPECT_EQ(add.Find("epoch")->integer, 1);
  JsonValue list =
      MustParse(service.HandleLine("{\"op\":\"list\",\"id\":\"l1\"}"));
  EXPECT_EQ(list.Find("datasets")->array.size(), 2u);

  // Bad path: structured error, catalog untouched.
  JsonValue bad = MustParse(service.HandleLine(
      "{\"op\":\"swap\",\"id\":\"s3\",\"dataset\":\"paper\","
      "\"path\":\"/nonexistent/x.tspmf\"}"));
  EXPECT_NE(StatusOf(bad), "OK");
  EXPECT_EQ(registry_.size(), 2u);
}

TEST_F(ServiceTest, StatsReportsCountersAndDrainState) {
  QueryService service = MakeService();
  service.HandleLine(PaperQuery("q1"));
  JsonValue stats =
      MustParse(service.HandleLine("{\"op\":\"stats\",\"id\":\"st\"}"));
  ASSERT_EQ(StatusOf(stats), "OK");
  EXPECT_EQ(stats.Find("admission")->Find("admitted")->integer, 1);
  EXPECT_EQ(stats.Find("cache")->Find("misses")->integer, 1);
  EXPECT_EQ(stats.Find("datasets")->integer, 1);
  EXPECT_FALSE(stats.Find("draining")->bool_value);
}

TEST_F(ServiceTest, DrainRejectsNewWorkButStaysStructured) {
  QueryService service = MakeService();
  service.BeginDrain();
  EXPECT_TRUE(service.draining());

  // Queries and swaps get UNAVAILABLE; ping and stats stay live so
  // operators can watch the drain finish.
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine(PaperQuery("q")))),
            "UNAVAILABLE");
  EXPECT_EQ(StatusOf(MustParse(service.HandleLine(
                "{\"op\":\"swap\",\"dataset\":\"paper\",\"path\":\"x\"}"))),
            "UNAVAILABLE");
  EXPECT_EQ(StatusOf(MustParse(
                service.HandleLine("{\"op\":\"ping\",\"id\":\"p\"}"))),
            "OK");
  JsonValue stats =
      MustParse(service.HandleLine("{\"op\":\"stats\",\"id\":\"st\"}"));
  EXPECT_TRUE(stats.Find("draining")->bool_value);
  EXPECT_EQ(service.in_flight(), 0u);

  // Idempotent.
  service.BeginDrain();
  EXPECT_TRUE(service.draining());
}

TEST_F(ServiceTest, WindowedBackendServesOnTheWire) {
  QueryService service = MakeService();
  const std::string line = service.HandleLine(PaperQuery(
      "w1", ",\"backend\":\"windowed\",\"window\":20,\"delta\":4"));
  JsonValue r = MustParse(line);
  ASSERT_EQ(StatusOf(r), "OK") << line;
  EXPECT_EQ(r.Find("pattern_count")->integer,
            static_cast<int64_t>(rpm::testing::PaperExamplePatterns().size()));
  // Window/delta are part of the cache key: a different delta re-mines.
  JsonValue other = MustParse(service.HandleLine(PaperQuery(
      "w2", ",\"backend\":\"windowed\",\"window\":20,\"delta\":2")));
  EXPECT_EQ(other.Find("meta")->Find("cache")->string_value, "miss");
}

TEST_F(ServiceTest, WindowedAndBatchAnswersNeverShareACacheEntry) {
  // A narrow window covers only the snapshot's tail, so its answer differs
  // from the whole-snapshot batch answer. The batch backends ignore
  // window/delta, so a sequential query carrying the same window must not
  // leave an entry the windowed query is then served from.
  const std::string window = ",\"meta\":false,\"window\":3,\"delta\":2";
  const std::string windowed_query =
      PaperQuery("w", window + ",\"backend\":\"windowed\"");
  QueryService fresh = MakeService();
  const std::string expected = fresh.HandleLine(windowed_query);
  ASSERT_EQ(StatusOf(MustParse(expected)), "OK") << expected;

  QueryService service = MakeService();
  const std::string batch = service.HandleLine(PaperQuery("w", window));
  ASSERT_NE(batch, expected);
  EXPECT_EQ(service.HandleLine(windowed_query), expected);
  EXPECT_EQ(service.cache_stats().hits, 0u);

  // Nor do window/delta split the batch entry: the same sequential query
  // without them is a hit.
  JsonValue again = MustParse(service.HandleLine(PaperQuery("s")));
  EXPECT_EQ(again.Find("meta")->Find("cache")->string_value, "hit");
}

TEST_F(ServiceTest, RemovedStreamingBackendIsInvalidArgument) {
  QueryService service = MakeService();
  const std::string line =
      service.HandleLine(PaperQuery("s", ",\"backend\":\"streaming\""));
  JsonValue r = MustParse(line);
  EXPECT_EQ(StatusOf(r), "INVALID_ARGUMENT") << line;
  EXPECT_NE(r.Find("error")->string_value.find("unknown backend 'streaming'"),
            std::string::npos)
      << line;
}

}  // namespace
}  // namespace rpm::serve
