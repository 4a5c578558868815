// Bidirectional mapping between item names and dense ItemIds.

#ifndef RPM_TIMESERIES_ITEM_DICTIONARY_H_
#define RPM_TIMESERIES_ITEM_DICTIONARY_H_

#include <string>
#include <string_view>
#include <vector>

#include "rpm/common/status.h"
#include "rpm/timeseries/types.h"

namespace rpm {

/// Interns item names as contiguous ids 0..size()-1.
///
/// Mining operates on ids; the dictionary is consulted only at the
/// input/report boundaries. Copyable; ids are stable once assigned.
/// Looking up a name already interned allocates nothing, so a reader can
/// intern every token straight from its input buffer.
class ItemDictionary {
 public:
  ItemDictionary() = default;

  /// Returns the existing id for `name`, or assigns the next free one.
  ItemId GetOrAdd(std::string_view name);

  /// Returns the id of `name`, or NotFound.
  Result<ItemId> Lookup(std::string_view name) const;

  /// Returns the name of `id`; ids never handed out map to "item<id>".
  std::string NameOf(ItemId id) const;

  /// Translates a whole itemset to names (report formatting).
  std::vector<std::string> NamesOf(const Itemset& items) const;

  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

 private:
  /// The slot holding `name`'s id, or the empty slot where it belongs.
  /// Precondition: !slots_.empty().
  size_t FindSlot(std::string_view name) const;
  /// Resizes `slots_` to keep it at most half full and re-inserts every id.
  void Rehash();

  std::vector<std::string> names_;
  /// Open-addressing table with linear probing: a power-of-two number of
  /// slots, each holding an index into names_ or kInvalidItem when empty.
  std::vector<ItemId> slots_;
};

}  // namespace rpm

#endif  // RPM_TIMESERIES_ITEM_DICTIONARY_H_
