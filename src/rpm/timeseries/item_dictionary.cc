#include "rpm/timeseries/item_dictionary.h"

#include <functional>

namespace rpm {

size_t ItemDictionary::FindSlot(std::string_view name) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(name) & mask;;
       i = (i + 1) & mask) {
    const ItemId id = slots_[i];
    if (id == kInvalidItem || names_[id] == name) return i;
  }
}

void ItemDictionary::Rehash() {
  size_t capacity = 16;
  while (capacity < 2 * names_.size()) capacity *= 2;
  slots_.assign(capacity, kInvalidItem);
  for (size_t id = 0; id < names_.size(); ++id) {
    slots_[FindSlot(names_[id])] = static_cast<ItemId>(id);
  }
}

ItemId ItemDictionary::GetOrAdd(std::string_view name) {
  if (slots_.empty()) Rehash();
  const size_t slot = FindSlot(name);
  if (slots_[slot] != kInvalidItem) return slots_[slot];
  const ItemId id = static_cast<ItemId>(names_.size());
  names_.emplace_back(name);
  if (2 * names_.size() > slots_.size()) {
    Rehash();
  } else {
    slots_[slot] = id;
  }
  return id;
}

Result<ItemId> ItemDictionary::Lookup(std::string_view name) const {
  const ItemId id = slots_.empty() ? kInvalidItem : slots_[FindSlot(name)];
  if (id == kInvalidItem) {
    return Status::NotFound("unknown item '" + std::string(name) + "'");
  }
  return id;
}

std::string ItemDictionary::NameOf(ItemId id) const {
  if (id < names_.size()) return names_[id];
  return "item" + std::to_string(id);
}

std::vector<std::string> ItemDictionary::NamesOf(const Itemset& items) const {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (ItemId id : items) out.push_back(NameOf(id));
  return out;
}

}  // namespace rpm
