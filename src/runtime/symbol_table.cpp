#include "runtime/symbol_table.hpp"

#include <bit>
#include <functional>

namespace trader::runtime {

std::uint32_t SymbolTable::tag_of(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

SymbolTable::Id SymbolTable::find(std::string_view name) const {
  if (slots_.empty()) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<Id>(i);
    }
    return kNone;
  }
  const std::uint32_t tag = tag_of(name);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNone) return kNone;
    if (slot.tag == tag && names_[slot.id] == name) return slot.id;
  }
}

SymbolTable::Id SymbolTable::intern(std::string_view name) {
  const Id found = find(name);
  if (found != kNone) return found;
  const auto id = static_cast<Id>(names_.size());
  names_.emplace_back(name);
  if (names_.size() <= kScanMax) return id;
  if (2 * names_.size() <= slots_.size()) {
    place(Slot{tag_of(name), id});
    return id;
  }
  // Grow to at least twice the names. The tags hold every hash bit a
  // home slot uses, so the first index is built from the names and
  // later ones from the old slots.
  std::vector<Slot> old(std::bit_ceil(2 * names_.size()), Slot{0, kNone});
  old.swap(slots_);
  if (old.empty()) {
    for (Id i = 0; i < names_.size(); ++i) place(Slot{tag_of(names_[i]), i});
  } else {
    for (const Slot& slot : old) {
      if (slot.id != kNone) place(slot);
    }
    place(Slot{tag_of(name), id});
  }
  return id;
}

void SymbolTable::place(Slot slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot.tag & mask;
  while (slots_[i].id != kNone) i = (i + 1) & mask;
  slots_[i] = slot;
}

}  // namespace trader::runtime
