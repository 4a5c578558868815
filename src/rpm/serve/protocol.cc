#include "rpm/serve/protocol.h"

#include <sstream>

#include "rpm/analysis/export.h"
#include "rpm/serve/wire.h"

namespace rpm::serve {

namespace {

/// Sets `request`'s query field `key`; tolerance, timeout_ms and
/// max_memory_mb go to `outside`, range-checked once all fields are read.
Status ApplyQueryField(const std::string& key, const JsonValue& value,
                       Request* request, engine::OutsideLimits* outside) {
  engine::Query& q = request->query;
  if (key == "per") {
    RPM_ASSIGN_OR_RETURN(q.params.period, value.GetInt64(key));
  } else if (key == "min_ps") {
    RPM_ASSIGN_OR_RETURN(q.params.min_ps, value.GetUint64(key));
  } else if (key == "min_rec") {
    RPM_ASSIGN_OR_RETURN(q.params.min_rec, value.GetUint64(key));
  } else if (key == "tolerance") {
    RPM_ASSIGN_OR_RETURN(outside->tolerance, value.GetUint64(key));
  } else if (key == "top_k") {
    RPM_ASSIGN_OR_RETURN(q.top_k, value.GetUint64(key));
  } else if (key == "max_length") {
    RPM_ASSIGN_OR_RETURN(q.max_pattern_length, value.GetUint64(key));
  } else if (key == "closed") {
    RPM_ASSIGN_OR_RETURN(q.closed, value.GetBool(key));
  } else if (key == "maximal") {
    RPM_ASSIGN_OR_RETURN(q.maximal, value.GetBool(key));
  } else if (key == "timeout_ms") {
    RPM_ASSIGN_OR_RETURN(outside->timeout_ms, value.GetUint64(key));
  } else if (key == "max_memory_mb") {
    RPM_ASSIGN_OR_RETURN(outside->max_memory_mb, value.GetUint64(key));
  } else if (key == "max_patterns") {
    RPM_ASSIGN_OR_RETURN(q.limits.max_patterns, value.GetUint64(key));
  } else if (key == "window") {
    RPM_ASSIGN_OR_RETURN(q.window, value.GetInt64(key));
  } else if (key == "delta") {
    RPM_ASSIGN_OR_RETURN(q.delta, value.GetUint64(key));
  } else if (key == "backend") {
    std::string name;
    RPM_ASSIGN_OR_RETURN(name, value.GetString(key));
    RPM_ASSIGN_OR_RETURN(request->backend, engine::ParseBackend(name));
  } else if (key == "threads") {
    RPM_ASSIGN_OR_RETURN(request->threads, value.GetUint64(key));
  } else if (key == "meta") {
    RPM_ASSIGN_OR_RETURN(request->want_meta, value.GetBool(key));
  } else {
    return Status::InvalidArgument("unknown request field '" + key + "'");
  }
  return Status::OK();
}

}  // namespace

const char* WireStatusName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kUnknown:
      return "UNKNOWN";
  }
  return "UNKNOWN";
}

Result<Request> ParseRequest(const std::string& line) {
  RPM_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  engine::OutsideLimits outside;
  for (const auto& [key, value] : root.members) {
    if (key == "op") {
      RPM_ASSIGN_OR_RETURN(request.op, value.GetString(key));
    } else if (key == "id") {
      RPM_ASSIGN_OR_RETURN(request.id, value.GetString(key));
    } else if (key == "tenant") {
      RPM_ASSIGN_OR_RETURN(request.tenant, value.GetString(key));
      if (request.tenant.empty()) {
        return Status::InvalidArgument("tenant name must be non-empty");
      }
    } else if (key == "dataset") {
      RPM_ASSIGN_OR_RETURN(request.dataset, value.GetString(key));
    } else if (key == "path") {
      RPM_ASSIGN_OR_RETURN(request.path, value.GetString(key));
    } else if (key == "format") {
      RPM_ASSIGN_OR_RETURN(request.format, value.GetString(key));
    } else {
      RPM_RETURN_NOT_OK(ApplyQueryField(key, value, &request, &outside));
    }
  }

  if (request.op == "ping" || request.op == "list" || request.op == "stats") {
    return request;
  }
  if (request.op == "query") {
    if (request.dataset.empty()) {
      return Status::InvalidArgument("query requires a \"dataset\" name");
    }
    // Mirror the CLI's minPS resolution: zero means "at least once".
    if (request.query.params.min_ps == 0) request.query.params.min_ps = 1;
    RPM_RETURN_NOT_OK(engine::SetOutsideLimits(outside, &request.query));
    RPM_RETURN_NOT_OK(request.query.Validate());
    return request;
  }
  if (request.op == "swap") {
    if (request.dataset.empty()) {
      return Status::InvalidArgument("swap requires a \"dataset\" name");
    }
    if (request.path.empty()) {
      return Status::InvalidArgument("swap requires a \"path\"");
    }
    return request;
  }
  if (request.op.empty()) {
    return Status::InvalidArgument("request is missing \"op\"");
  }
  return Status::InvalidArgument(
      "unknown op '" + request.op +
      "' (expected ping|list|query|swap|stats)");
}

std::string CacheKey(const std::string& dataset, uint64_t epoch,
                     const engine::Query& query,
                     engine::BackendKind backend) {
  // Sequential and parallel answers are bit-identical and ignore the
  // window; the windowed answer covers only the final window. The pattern
  // cap bounds even a completed answer, so it is part of the shape.
  const bool windowed = backend == engine::BackendKind::kWindowed;
  std::ostringstream key;
  key << dataset << '\x1f' << epoch << '\x1f' << query.params.period << '|'
      << query.params.min_ps << '|' << query.params.min_rec << '|'
      << query.params.max_gap_violations << '|' << query.max_pattern_length
      << '|' << query.top_k << '|' << query.closed << '|' << query.maximal
      << '|' << windowed << '|' << (windowed ? query.window : 0) << '|'
      << (windowed ? query.delta : 0) << '|' << query.limits.max_patterns;
  return key.str();
}

Result<std::string> QueryPayload(const engine::QueryResult& result,
                                 const ItemDictionary& dict) {
  std::ostringstream patterns;
  RPM_RETURN_NOT_OK(
      analysis::WritePatternsJson(result.patterns, dict, &patterns));
  std::ostringstream payload;
  payload << "\"status\":\"" << WireStatusName(result.status.code())
          << "\",\"truncated\":" << (result.truncated ? "true" : "false")
          << ",\"pattern_count\":" << result.patterns.size()
          << ",\"patterns_json\":\"" << JsonEscape(patterns.str()) << '"';
  if (!result.status.ok()) {
    payload << ",\"error\":\"" << JsonEscape(result.status.message())
            << '"';
  }
  return payload.str();
}

std::string WrapResponse(const std::string& id, const std::string& payload,
                         const std::string& meta) {
  std::string line = "{\"id\":\"" + JsonEscape(id) + "\"," + payload;
  if (!meta.empty()) line += ",\"meta\":{" + meta + "}";
  line += "}";
  return line;
}

std::string ErrorResponse(const std::string& id, const std::string& status,
                          const std::string& message) {
  return "{\"id\":\"" + JsonEscape(id) + "\",\"status\":\"" + status +
         "\",\"error\":\"" + JsonEscape(message) + "\"}";
}

std::string OverloadedResponse(const std::string& id,
                               int64_t retry_after_ms,
                               const std::string& rejected_by) {
  return "{\"id\":\"" + JsonEscape(id) + "\",\"status\":\"" +
         kStatusOverloaded +
         "\",\"error\":\"admission queue full (" + rejected_by +
         " limit)\",\"retry_after_ms\":" + std::to_string(retry_after_ms) +
         ",\"rejected_by\":\"" + rejected_by + "\"}";
}

}  // namespace rpm::serve
