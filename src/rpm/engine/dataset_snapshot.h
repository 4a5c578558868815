// Immutable, shared view of a loaded transaction database — the *data*
// half of the query engine's data/query lifecycle split (DESIGN.md §6).
//
// A DatasetSnapshot is created once per loaded dataset and then shared
// (shared_ptr, strictly read-only) by any number of query sessions,
// planners and executor threads. It holds only what the loader produced:
// the canonical transactions and the item dictionary. Every index the
// miners read depends on the query's thresholds (the RP-list, and the
// RP-tree built in its order), so those structures live in QueryPlanner
// caches keyed by query parameters, not here.

#ifndef RPM_ENGINE_DATASET_SNAPSHOT_H_
#define RPM_ENGINE_DATASET_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "rpm/common/status.h"
#include "rpm/timeseries/transaction_database.h"
#include "rpm/timeseries/types.h"

namespace rpm::engine {

/// Read-only dataset snapshot. All accessors are const and safe to call
/// concurrently from any number of threads; the only way to "mutate" a
/// snapshot is to build a new one.
class DatasetSnapshot {
 public:
  /// Wraps an already-loaded database. The database must satisfy the
  /// TransactionDatabase invariants (sorted unique timestamps, sorted
  /// duplicate-free items) — use TdbBuilder / the readers otherwise.
  static std::shared_ptr<const DatasetSnapshot> Create(
      TransactionDatabase db);

  /// Loads a file per `format` — "tspmf" (default), "spmf" or "csv" — and
  /// snapshots it. The single loader behind every rpminer subcommand.
  static Result<std::shared_ptr<const DatasetSnapshot>> Load(
      const std::string& path, const std::string& format);

  const TransactionDatabase& db() const { return db_; }
  const ItemDictionary& dictionary() const { return db_.dictionary(); }

  size_t size() const { return db_.size(); }
  bool empty() const { return db_.empty(); }
  uint32_t ItemUniverseSize() const { return db_.ItemUniverseSize(); }

  /// Series span. Precondition: !empty().
  Timestamp start_ts() const { return db_.start_ts(); }
  Timestamp end_ts() const { return db_.end_ts(); }

 private:
  explicit DatasetSnapshot(TransactionDatabase db);

  TransactionDatabase db_;
};

}  // namespace rpm::engine

#endif  // RPM_ENGINE_DATASET_SNAPSHOT_H_
