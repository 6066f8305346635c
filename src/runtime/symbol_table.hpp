// Dense ids for strings: topics on a bus, routed topics in a fleet,
// observable names in a monitor.
//
// Each string is stored once, in id order. Lookups scan while the
// table holds a handful of names (a monitor's observables), and go
// through an open-addressed index (linear probing, power-of-two size,
// at most half full) once it grows past that (a fleet's topics). An
// event pays one lookup where its string enters; every table behind it
// is a vector indexed by id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace trader::runtime {

class SymbolTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  /// The id of `name`, or kNone when it was never interned.
  Id find(std::string_view name) const;

  /// The id of `name`, assigning the next one when it is new. Ids are
  /// dense and never reused.
  Id intern(std::string_view name);

 private:
  /// Up to this many names a scan beats hashing, and no index is kept.
  static constexpr std::size_t kScanMax = 8;

  struct Slot {
    std::uint32_t tag;  ///< Low hash bits: the home slot, and a cheap first compare.
    Id id;              ///< kNone = empty.
  };

  static std::uint32_t tag_of(std::string_view name);
  void place(Slot slot);

  std::vector<std::string> names_;
  std::vector<Slot> slots_;  ///< Empty while size() <= kScanMax.
};

}  // namespace trader::runtime
