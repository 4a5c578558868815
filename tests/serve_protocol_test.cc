// serve/protocol.h: request parsing mirrors the mine flag vocabulary
// (unknown fields rejected), the cache key covers exactly the fields that
// change a completed payload (and nothing history-dependent), and every
// response constructor emits one parseable JSON line.

#include "rpm/serve/protocol.h"

#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/query.h"
#include "rpm/serve/wire.h"

namespace rpm::serve {
namespace {

TEST(WireStatus, NamesAreStable) {
  EXPECT_STREQ(WireStatusName(StatusCode::kOk), "OK");
  EXPECT_STREQ(WireStatusName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(WireStatusName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(WireStatusName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(WireStatusName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(WireStatusName(StatusCode::kCancelled), "CANCELLED");
}

TEST(ParseRequest, QueryDefaultsMatchServeContract) {
  Result<Request> r = ParseRequest(
      "{\"op\":\"query\",\"dataset\":\"d\",\"per\":2,\"min_ps\":3,"
      "\"min_rec\":2}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tenant, "anonymous");
  EXPECT_EQ(r->threads, 1u);
  EXPECT_TRUE(r->want_meta);
  EXPECT_EQ(r->backend, engine::BackendKind::kSequential);
  EXPECT_EQ(r->query.params.period, 2);
  EXPECT_EQ(r->query.params.min_ps, 3u);
  EXPECT_EQ(r->query.params.min_rec, 2u);
}

TEST(ParseRequest, FullVocabularyRoundTrips) {
  Result<Request> r = ParseRequest(
      "{\"op\":\"query\",\"id\":\"q7\",\"tenant\":\"alice\","
      "\"dataset\":\"d\",\"per\":3,\"min_ps\":2,\"min_rec\":4,"
      "\"tolerance\":1,\"top_k\":0,\"max_length\":5,\"closed\":true,"
      "\"timeout_ms\":1000,\"max_memory_mb\":64,\"max_patterns\":100,"
      "\"backend\":\"parallel\",\"threads\":2,\"meta\":false}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->id, "q7");
  EXPECT_EQ(r->tenant, "alice");
  EXPECT_EQ(r->query.params.max_gap_violations, 1u);
  EXPECT_EQ(r->query.max_pattern_length, 5u);
  EXPECT_TRUE(r->query.closed);
  EXPECT_EQ(r->query.limits.timeout_ms, 1000);
  EXPECT_EQ(r->query.limits.memory_budget_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(r->query.limits.max_patterns, 100u);
  EXPECT_EQ(r->backend, engine::BackendKind::kParallel);
  EXPECT_EQ(r->threads, 2u);
  EXPECT_FALSE(r->want_meta);
}

TEST(ParseRequest, RejectsUnknownFieldsLikeUnknownFlags) {
  Result<Request> r = ParseRequest(
      "{\"op\":\"query\",\"dataset\":\"d\",\"per\":2,\"min_ps\":3,"
      "\"min_rec\":2,\"bogus\":1}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bogus"), std::string::npos);
}

TEST(ParseRequest, RejectsIncoherentRequests) {
  // Missing op, unknown op, missing dataset, empty tenant, invalid params.
  EXPECT_FALSE(ParseRequest("{\"id\":\"x\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"frobnicate\"}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"op\":\"query\",\"per\":2,\"min_rec\":2}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"op\":\"query\",\"dataset\":\"d\",\"tenant\":\"\","
                   "\"per\":2,\"min_rec\":2}")
          .ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"query\",\"dataset\":\"d\","
                            "\"per\":0,\"min_rec\":2}")
                   .ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"swap\",\"dataset\":\"d\"}").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
}

TEST(ParseRequest, RejectsLimitsTheQueryCannotHoldLikeTheCli) {
  const std::string prefix =
      "{\"op\":\"query\",\"dataset\":\"d\",\"per\":2,\"min_ps\":3,";
  for (const char* bad :
       {"\"tolerance\":4294967296}", "\"max_memory_mb\":17592186044416}"}) {
    Result<Request> r = ParseRequest(prefix + bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << bad;
  }
  Result<Request> r = ParseRequest(
      prefix +
      "\"tolerance\":4294967295,\"max_memory_mb\":17592186044415,"
      "\"timeout_ms\":9223372036854775807}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->query.params.max_gap_violations, 4294967295u);
  EXPECT_EQ(r->query.limits.memory_budget_bytes, 17592186044415ull << 20);
  EXPECT_EQ(r->query.limits.timeout_ms,
            std::numeric_limits<int64_t>::max());
}

TEST(ParseRequest, MinPsZeroResolvesToOneLikeTheCli) {
  Result<Request> r = ParseRequest(
      "{\"op\":\"query\",\"dataset\":\"d\",\"per\":2,\"min_rec\":2}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->query.params.min_ps, 1u);
}

TEST(CacheKey, CoversShapeNotLimitsOrBackend) {
  engine::Query base;
  base.params.period = 2;
  base.params.min_ps = 3;
  base.params.min_rec = 2;
  constexpr engine::BackendKind kSeq = engine::BackendKind::kSequential;
  constexpr engine::BackendKind kWin = engine::BackendKind::kWindowed;
  const std::string key = CacheKey("d", 1, base, kSeq);

  // Sequential and parallel answers are bit-identical and share an entry;
  // both ignore window/delta, so those do not split it either.
  EXPECT_EQ(CacheKey("d", 1, base, engine::BackendKind::kParallel), key);
  engine::Query windowed = base;
  windowed.window = 10;
  windowed.delta = 4;
  EXPECT_EQ(CacheKey("d", 1, windowed, kSeq), key);
  // The windowed backend answers for the final window only.
  EXPECT_NE(CacheKey("d", 1, windowed, kWin), key);
  engine::Query other_delta = windowed;
  other_delta.delta = 2;
  EXPECT_NE(CacheKey("d", 1, other_delta, kWin),
            CacheKey("d", 1, windowed, kWin));

  // Limits are excluded by design: a completed, untruncated result is the
  // full deterministic answer under any sufficient budget.
  engine::Query limited = base;
  limited.limits.timeout_ms = 5;
  limited.limits.memory_budget_bytes = 1 << 20;
  EXPECT_EQ(CacheKey("d", 1, limited, kSeq), key);
  // ...except the pattern cap: the full answer may exceed it.
  engine::Query capped = base;
  capped.limits.max_patterns = 1;
  EXPECT_NE(CacheKey("d", 1, capped, kSeq), key);

  // Everything that changes the payload must change the key.
  engine::Query stricter = base;
  stricter.params.min_rec = 3;
  EXPECT_NE(CacheKey("d", 1, stricter, kSeq), key);
  engine::Query closed = base;
  closed.closed = true;
  EXPECT_NE(CacheKey("d", 1, closed, kSeq), key);
  EXPECT_NE(CacheKey("d", 2, base, kSeq), key);   // epoch (hot swap)
  EXPECT_NE(CacheKey("d2", 1, base, kSeq), key);  // dataset name
}

TEST(Responses, AreParseableJsonLines) {
  Result<JsonValue> error =
      ParseJson(ErrorResponse("id-1", "NOT_FOUND", "no dataset \"x\"\n"));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->Find("status")->string_value, "NOT_FOUND");
  EXPECT_EQ(error->Find("id")->string_value, "id-1");
  EXPECT_NE(error->Find("error"), nullptr);

  Result<JsonValue> overloaded =
      ParseJson(OverloadedResponse("id-2", 120, "tenant"));
  ASSERT_TRUE(overloaded.ok());
  EXPECT_EQ(overloaded->Find("status")->string_value, "OVERLOADED");
  EXPECT_EQ(overloaded->Find("retry_after_ms")->integer, 120);
  EXPECT_EQ(overloaded->Find("rejected_by")->string_value, "tenant");

  Result<JsonValue> wrapped = ParseJson(
      WrapResponse("id-3", "\"status\":\"OK\"", "\"cache\":\"hit\""));
  ASSERT_TRUE(wrapped.ok());
  ASSERT_NE(wrapped->Find("meta"), nullptr);
  EXPECT_EQ(wrapped->Find("meta")->Find("cache")->string_value, "hit");

  // Empty meta is omitted entirely, keeping meta-free replies canonical.
  Result<JsonValue> bare =
      ParseJson(WrapResponse("id-4", "\"status\":\"OK\"", ""));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->Find("meta"), nullptr);
}

}  // namespace
}  // namespace rpm::serve
