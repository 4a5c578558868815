// QueryService: the transport-independent core of the query server — one
// request line in, one response line out (DESIGN.md §10).
//
// The TCP layer (serve/server.h) owns sockets and threads; this class owns
// everything else: request parsing, the dataset catalog, per-tenant
// admission, quota clamping, the single-flight result cache, and drain
// semantics. Splitting here keeps the whole op surface unit-testable
// in-process (tests/serve_service_test.cc drives HandleLine directly, no
// sockets involved) and keeps the socket layer too small to hide bugs.
//
// Error contract: HandleLine NEVER throws and always returns exactly one
// well-formed JSON response line — malformed input, unknown datasets,
// quota rejections, budget stops and drain all surface as structured
// status responses, not dropped connections.

#ifndef RPM_SERVE_SERVICE_H_
#define RPM_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "rpm/core/cancellation.h"
#include "rpm/engine/snapshot_registry.h"
#include "rpm/serve/admission.h"
#include "rpm/serve/protocol.h"
#include "rpm/serve/result_cache.h"
#include "rpm/serve/tenant_registry.h"

namespace rpm::serve {

class QueryService {
 public:
  struct Options {
    AdmissionController::Options admission;
    /// Completed-result cache capacity (entries, FIFO-evicted).
    size_t cache_entries = 64;
  };

  QueryService(engine::SnapshotRegistry* registry, TenantRegistry tenants,
               const Options& options);

  /// Handles one request line; returns one response line (no trailing
  /// newline). Total, never throws.
  std::string HandleLine(const std::string& line);

  /// Enters drain mode: new queries get UNAVAILABLE, queued admissions
  /// wake with UNAVAILABLE, and in-flight queries are cancelled (they
  /// return their deterministic committed prefix with CANCELLED).
  /// Idempotent; there is no way back — drain ends in process exit.
  void BeginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Queries currently holding admission slots (drain completion check).
  uint64_t in_flight() const { return admission_.running(); }

  const TenantRegistry& tenants() const { return tenants_; }
  AdmissionController::Stats admission_stats() const {
    return admission_.stats();
  }
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  std::string HandleQuery(const Request& request);
  std::string HandleSwap(const Request& request);
  std::string HandleList(const Request& request);
  std::string HandleStats(const Request& request);
  /// What a computed reply reports besides its payload.
  struct Computed {
    bool cacheable = false;  ///< OK and untruncated.
    bool tree_reused = false;
    size_t threads_used = 1;
  };
  /// Executes the (already admitted, already clamped) query on at most
  /// one worker per hardware thread, whatever the request asks, and
  /// renders its deterministic payload.
  Result<std::string> Execute(const Request& request,
                              const engine::RegisteredDataset& dataset,
                              const engine::Query& query, Computed* out);

  engine::SnapshotRegistry* registry_;
  TenantRegistry tenants_;
  AdmissionController admission_;
  ResultCache cache_;
  std::atomic<bool> draining_{false};
  /// Cancels in-flight queries on drain; wired into every Query::cancel.
  CancellationToken drain_token_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_SERVICE_H_
