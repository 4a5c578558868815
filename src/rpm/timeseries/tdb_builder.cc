#include "rpm/timeseries/tdb_builder.h"

#include <algorithm>
#include <functional>

namespace rpm {

Itemset& TdbBuilder::RowAt(Timestamp ts) {
  if (!rows_.empty()) {
    if (rows_.back().ts == ts) return rows_.back().items;
    if (rows_.back().ts > ts) in_order_ = false;
  }
  rows_.push_back({ts, {}});
  return rows_.back().items;
}

void TdbBuilder::AddEvent(ItemId item, Timestamp ts) {
  RowAt(ts).push_back(item);
}

void TdbBuilder::AddTransaction(Timestamp ts, const Itemset& items) {
  Itemset& row = RowAt(ts);
  row.insert(row.end(), items.begin(), items.end());
}

void TdbBuilder::AddSequence(const EventSequence& sequence) {
  for (const Event& e : sequence.events()) AddEvent(e.item, e.ts);
}

TransactionDatabase TdbBuilder::Build(ItemDictionary dictionary) {
  std::vector<Transaction> rows = std::move(rows_);
  rows_.clear();
  if (!in_order_) {
    in_order_ = true;
    std::sort(rows.begin(), rows.end(),
              [](const Transaction& a, const Transaction& b) {
                return a.ts < b.ts;
              });
    // Fold each run of rows sharing a timestamp into its first row.
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (kept > 0 && rows[kept - 1].ts == rows[i].ts) {
        Itemset& into = rows[kept - 1].items;
        into.insert(into.end(), rows[i].items.begin(), rows[i].items.end());
      } else {
        if (kept != i) rows[kept] = std::move(rows[i]);
        ++kept;
      }
    }
    rows.erase(rows.begin() + kept, rows.end());
  }
  for (Transaction& row : rows) {
    Itemset& items = row.items;
    if (std::adjacent_find(items.begin(), items.end(),
                           std::greater_equal<>()) != items.end()) {
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
    }
  }
  // A timestamp with no events produces no row.
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [](const Transaction& row) {
                              return row.items.empty();
                            }),
             rows.end());
  return TransactionDatabase(std::move(rows), std::move(dictionary));
}

TransactionDatabase BuildTdbFromSequence(const EventSequence& sequence,
                                         ItemDictionary dictionary) {
  TdbBuilder builder;
  builder.AddSequence(sequence);
  return builder.Build(std::move(dictionary));
}

TransactionDatabase MakeDatabase(
    std::vector<std::pair<Timestamp, Itemset>> rows,
    ItemDictionary dictionary) {
  TdbBuilder builder;
  for (auto& [ts, items] : rows) builder.AddTransaction(ts, items);
  return builder.Build(std::move(dictionary));
}

}  // namespace rpm
