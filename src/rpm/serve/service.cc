#include "rpm/serve/service.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "rpm/core/thread_pool.h"
#include "rpm/engine/dataset_snapshot.h"
#include "rpm/engine/executor.h"
#include "rpm/serve/wire.h"

namespace rpm::serve {

QueryService::QueryService(engine::SnapshotRegistry* registry,
                           TenantRegistry tenants, const Options& options)
    : registry_(registry),
      tenants_(std::move(tenants)),
      admission_(options.admission, &tenants_),
      cache_(options.cache_entries) {}

std::string QueryService::HandleLine(const std::string& line) {
  try {
    if (line.size() > kMaxJsonBytes) {
      return ErrorResponse("", WireStatusName(StatusCode::kInvalidArgument),
                           "request line exceeds " +
                               std::to_string(kMaxJsonBytes) + " bytes");
    }
    Result<Request> request = ParseRequest(line);
    if (!request.ok()) {
      return ErrorResponse("",
                           WireStatusName(StatusCode::kInvalidArgument),
                           request.status().message());
    }
    if (request->op == "ping") {
      return WrapResponse(request->id, "\"status\":\"OK\"", "");
    }
    if (request->op == "list") return HandleList(*request);
    if (request->op == "stats") return HandleStats(*request);
    if (request->op == "swap") return HandleSwap(*request);
    return HandleQuery(*request);
  } catch (const std::exception& e) {
    // Last-resort fence: an in-band failure must become a structured
    // response, never a dropped connection or a crash.
    return ErrorResponse("", WireStatusName(StatusCode::kUnknown),
                         std::string("internal error: ") + e.what());
  } catch (...) {
    return ErrorResponse("", WireStatusName(StatusCode::kUnknown),
                         "internal error");
  }
}

std::string QueryService::HandleQuery(const Request& request) {
  if (draining()) {
    return ErrorResponse(request.id, kStatusUnavailable,
                         "server is draining");
  }
  Result<engine::RegisteredDataset> dataset =
      registry_->Get(request.dataset);
  if (!dataset.ok()) {
    return ErrorResponse(request.id,
                         WireStatusName(dataset.status().code()),
                         dataset.status().message());
  }

  // Admission FIRST, then cache: coalesced followers hold a slot while
  // they wait, so "one tree build per identical burst" (the coalescing
  // promise, about compute) never turns into "unbounded concurrent
  // waiters" (the admission promise, about slots).
  AdmissionController::Decision decision = admission_.Admit(request.tenant);
  if (decision.outcome == AdmissionController::Outcome::kRejected) {
    return OverloadedResponse(request.id, decision.retry_after_ms,
                              decision.rejected_by);
  }
  if (decision.outcome == AdmissionController::Outcome::kShutdown) {
    return ErrorResponse(request.id, kStatusUnavailable,
                         "server is draining");
  }

  engine::Query query = request.query;
  query.limits =
      tenants_.QuotasFor(request.tenant).ClampLimits(query.limits);
  query.cancel = &drain_token_;

  const std::string key =
      CacheKey(dataset->name, dataset->epoch, query, request.backend);
  ResultCache::JoinOutcome join = cache_.Join(key);
  std::shared_ptr<const std::string> payload;
  const char* cache_state = "hit";
  Computed info;
  bool computed = false;
  if (join.cached != nullptr) {
    payload = join.cached;
  } else if (join.leader) {
    cache_state = "miss";
    computed = true;
    FlightLease lease(&cache_, key, join.flight);
    Result<std::string> fresh = Execute(request, *dataset, query, &info);
    if (!fresh.ok()) {
      // Lease publishes "no result" on destruction; followers recompute.
      return ErrorResponse(request.id,
                           WireStatusName(fresh.status().code()),
                           fresh.status().message());
    }
    payload = std::make_shared<const std::string>(std::move(*fresh));
    lease.Publish(payload, info.cacheable);
  } else {
    cache_state = "coalesced";
    payload = cache_.Wait(join.flight);
    if (payload == nullptr) {
      // The leader failed or its result was uncacheable (limit-truncated);
      // fall back to an independent run under OUR clamped limits.
      computed = true;
      Result<std::string> fresh = Execute(request, *dataset, query, &info);
      if (!fresh.ok()) {
        return ErrorResponse(request.id,
                             WireStatusName(fresh.status().code()),
                             fresh.status().message());
      }
      payload = std::make_shared<const std::string>(std::move(*fresh));
    }
  }

  std::string meta;
  if (request.want_meta) {
    meta = "\"dataset\":\"" + JsonEscape(dataset->name) +
           "\",\"epoch\":" + std::to_string(dataset->epoch) +
           ",\"cache\":\"" + cache_state + "\",\"backend\":\"" +
           engine::BackendName(request.backend) + "\"";
    if (computed) {
      meta += std::string(",\"tree_reused\":") +
              (info.tree_reused ? "true" : "false") +
              ",\"threads_used\":" + std::to_string(info.threads_used);
    }
  }
  return WrapResponse(request.id, *payload, meta);
}

Result<std::string> QueryService::Execute(
    const Request& request, const engine::RegisteredDataset& dataset,
    const engine::Query& query, Computed* out) {
  // Results are identical at any thread count, so a client's count is
  // only a request: capped at the hardware (0 already means that).
  engine::ExecOptions exec;
  exec.threads = static_cast<size_t>(
      std::min<uint64_t>(request.threads, ResolveThreadCount(0)));
  RPM_ASSIGN_OR_RETURN(engine::QueryResult result,
                       engine::GetExecutor(request.backend)
                           .Execute(*dataset.planner, query, exec));
  out->tree_reused = result.tree_reused;
  out->threads_used = result.stats.threads_used;
  // Only complete results are shared: a truncated or budget-stopped run
  // reflects THIS query's clamped limits, not the answer to the key.
  out->cacheable = result.status.ok() && !result.truncated;
  return QueryPayload(result, dataset.snapshot->dictionary());
}

std::string QueryService::HandleSwap(const Request& request) {
  if (draining()) {
    return ErrorResponse(request.id, kStatusUnavailable,
                         "server is draining");
  }
  Result<std::shared_ptr<const engine::DatasetSnapshot>> snapshot =
      engine::DatasetSnapshot::Load(request.path, request.format);
  if (!snapshot.ok()) {
    return ErrorResponse(request.id,
                         WireStatusName(snapshot.status().code()),
                         snapshot.status().message());
  }
  Result<engine::RegisteredDataset> entry =
      registry_->Publish(request.dataset, std::move(*snapshot));
  if (!entry.ok()) {
    return ErrorResponse(request.id,
                         WireStatusName(entry.status().code()),
                         entry.status().message());
  }
  return WrapResponse(
      request.id,
      "\"status\":\"OK\",\"dataset\":\"" + JsonEscape(entry->name) +
          "\",\"epoch\":" + std::to_string(entry->epoch) +
          ",\"transactions\":" + std::to_string(entry->snapshot->size()),
      "");
}

std::string QueryService::HandleList(const Request& request) {
  std::string payload = "\"status\":\"OK\",\"datasets\":[";
  bool first = true;
  for (const engine::RegisteredDataset& entry : registry_->List()) {
    if (!first) payload += ',';
    first = false;
    payload += "{\"name\":\"" + JsonEscape(entry.name) +
               "\",\"epoch\":" + std::to_string(entry.epoch) +
               ",\"transactions\":" + std::to_string(entry.snapshot->size()) +
               ",\"items\":" +
               std::to_string(entry.snapshot->ItemUniverseSize()) + "}";
  }
  payload += "]";
  return WrapResponse(request.id, payload, "");
}

std::string QueryService::HandleStats(const Request& request) {
  const AdmissionController::Stats admission = admission_.stats();
  const ResultCache::Stats cache = cache_.stats();
  std::string payload =
      "\"status\":\"OK\",\"admission\":{\"admitted\":" +
      std::to_string(admission.admitted) +
      ",\"rejected_tenant\":" + std::to_string(admission.rejected_tenant) +
      ",\"rejected_global\":" + std::to_string(admission.rejected_global) +
      ",\"queued_total\":" + std::to_string(admission.queued_total) +
      ",\"running\":" + std::to_string(admission_.running()) +
      "},\"cache\":{\"hits\":" + std::to_string(cache.hits) +
      ",\"misses\":" + std::to_string(cache.misses) +
      ",\"coalesced\":" + std::to_string(cache.coalesced) +
      ",\"evictions\":" + std::to_string(cache.evictions) +
      ",\"entries\":" + std::to_string(cache_.size()) +
      "},\"datasets\":" + std::to_string(registry_->size()) +
      ",\"draining\":" + (draining() ? "true" : "false");
  return WrapResponse(request.id, payload, "");
}

void QueryService::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  // Stop new work, wake queued admissions, then cut running queries loose
  // at their next budget checkpoint (deterministic committed prefix).
  admission_.Shutdown();
  drain_token_.Cancel();
}

}  // namespace rpm::serve
