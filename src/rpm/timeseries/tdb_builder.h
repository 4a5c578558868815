// TSD -> TDB conversion and incremental database construction
// (the "linked hash table" grouping step the paper describes at the end of
// Sec. 3, made explicit: group events by timestamp, order by timestamp).

#ifndef RPM_TIMESERIES_TDB_BUILDER_H_
#define RPM_TIMESERIES_TDB_BUILDER_H_

#include <vector>

#include "rpm/common/status.h"
#include "rpm/timeseries/event_sequence.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm {

/// Builds a valid TransactionDatabase from unordered input.
///
/// Accepts events and whole transactions in any order, merges items landing
/// on the same timestamp, deduplicates items, drops nothing else — exactly
/// the information-preserving conversion of Example 2 (timestamps with no
/// events simply produce no transaction).
///
/// Rows are appended in arrival order; additions at the timestamp of the
/// last row join that row. Build() sorts and merges rows only when a
/// timestamp arrived out of order, so in-order input (every reader and
/// generator) costs one append per row.
class TdbBuilder {
 public:
  TdbBuilder() = default;

  /// Adds a single event (i, ts).
  void AddEvent(ItemId item, Timestamp ts);

  /// Adds every item of `items` at timestamp `ts`.
  void AddTransaction(Timestamp ts, const Itemset& items);

  /// Adds a whole event sequence.
  void AddSequence(const EventSequence& sequence);

  /// Rows accumulated so far: the number of distinct timestamps when they
  /// arrived in order, more when Build() still has rows to merge.
  size_t PendingTransactions() const { return rows_.size(); }

  /// Produces the database and resets the builder. `dictionary` (optional)
  /// is attached to the result.
  TransactionDatabase Build(ItemDictionary dictionary = {});

 private:
  /// The row for `ts`: the last row when it has that timestamp, else a new
  /// one appended after it.
  Itemset& RowAt(Timestamp ts);

  std::vector<Transaction> rows_;
  /// True while rows_ timestamps are strictly increasing.
  bool in_order_ = true;
};

/// One-shot conversion (Definition 1-2 path): time series in, TDB out.
TransactionDatabase BuildTdbFromSequence(const EventSequence& sequence,
                                         ItemDictionary dictionary = {});

/// Convenience for tests and examples: builds a database from
/// (ts, items) literals, e.g. the paper's Table 1 running example.
TransactionDatabase MakeDatabase(
    std::vector<std::pair<Timestamp, Itemset>> rows,
    ItemDictionary dictionary = {});

}  // namespace rpm

#endif  // RPM_TIMESERIES_TDB_BUILDER_H_
