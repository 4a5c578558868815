// Wire protocol of the query server: line-delimited JSON requests and
// responses over a byte stream (DESIGN.md §10, docs/API.md "Server wire
// protocol").
//
// Requests are one JSON object per line. Field names mirror the
// `rpminer mine` flag vocabulary (per, min_ps, min_rec, tolerance, ...) so
// the two entry points cannot drift; unknown fields are rejected, exactly
// like unknown flags.
//
// Responses are one JSON object per line, always carrying "status" (a
// stable upper-case code) and echoing the request "id". The payload of a
// completed query is DETERMINISTIC — no timings, no cache or reuse info —
// so identical queries yield identical bytes whether computed, cached, or
// coalesced, and an armed fault campaign can byte-compare its disarmed
// rerun. History-dependent observability (cache hit/miss, tree reuse)
// rides in a separate "meta" object that `"meta": false` omits.

#ifndef RPM_SERVE_PROTOCOL_H_
#define RPM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "rpm/common/status.h"
#include "rpm/engine/executor.h"
#include "rpm/engine/query.h"
#include "rpm/timeseries/item_dictionary.h"

namespace rpm::serve {

/// Admission rejection (not a StatusCode: the query never ran).
inline constexpr const char* kStatusOverloaded = "OVERLOADED";
/// Server draining / shut down.
inline constexpr const char* kStatusUnavailable = "UNAVAILABLE";

/// Stable wire name for an engine StatusCode ("OK", "INVALID_ARGUMENT",
/// "NOT_FOUND", "DEADLINE_EXCEEDED", "RESOURCE_EXHAUSTED", "CANCELLED",
/// ...; never changes once shipped).
const char* WireStatusName(StatusCode code);

/// One parsed request line.
struct Request {
  std::string op;  ///< "ping" | "list" | "query" | "swap" | "stats"
  /// Client correlation id, echoed verbatim in the response ("" allowed).
  std::string id;
  /// Tenant name for admission control; absent -> "anonymous".
  std::string tenant = "anonymous";
  /// Dataset name (query/swap ops).
  std::string dataset;

  // -- op == "query" --
  /// Requested query; limits are the CLIENT's request, clamped to tenant
  /// quotas at execution time.
  engine::Query query;
  engine::BackendKind backend = engine::BackendKind::kSequential;
  /// Parallel-backend workers (serve default 1: thread count stays
  /// bounded by sessions, not multiplied by them).
  uint64_t threads = 1;
  /// False suppresses the "meta" object for byte-deterministic replies.
  bool want_meta = true;

  // -- op == "swap" --
  std::string path;
  std::string format = "tspmf";
};

/// Parses and validates one request line. The error message is safe to
/// send back as an INVALID_ARGUMENT response.
Result<Request> ParseRequest(const std::string& line);

/// Canonical single-flight / result-cache key: dataset identity (name +
/// epoch) plus every request field that changes a COMPLETED query's
/// payload. The backend enters only as batch vs windowed, and window/delta
/// only for the windowed backend (the batch backends ignore both); of the
/// limits only max_patterns enters (result_cache.h).
std::string CacheKey(const std::string& dataset, uint64_t epoch,
                     const engine::Query& query,
                     engine::BackendKind backend);

/// Deterministic response payload of an executed query: a JSON fragment
///   "status":..., "truncated":..., "pattern_count":N, "patterns_json":...
/// (plus "error" for non-OK). "patterns_json" holds the exact bytes
/// `rpminer mine --output-format=json` would write, JSON-escaped, so
/// clients can unescape to the byte-identical standalone artifact.
Result<std::string> QueryPayload(const engine::QueryResult& result,
                                 const ItemDictionary& dict);

/// Full response line (no trailing newline): {"id":...,<payload>[,"meta":
/// {<meta>}]}. `meta` empty => omitted.
std::string WrapResponse(const std::string& id, const std::string& payload,
                         const std::string& meta);

/// {"id":...,"status":<status>,"error":<message>}
std::string ErrorResponse(const std::string& id, const std::string& status,
                          const std::string& message);

/// OVERLOADED rejection with the admission controller's backoff hint.
std::string OverloadedResponse(const std::string& id,
                               int64_t retry_after_ms,
                               const std::string& rejected_by);

}  // namespace rpm::serve

#endif  // RPM_SERVE_PROTOCOL_H_
