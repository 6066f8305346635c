// Per-observable state of one awareness monitor, indexed by id.
//
// The model executor's expected value, the output observer's observed
// value and the comparator's deviation episode of an observable share
// one row. An output event pays one name lookup; everything after it
// reaches the row by id.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/symbol_table.hpp"

namespace trader::core {

using ObservableId = runtime::SymbolTable::Id;

/// Expected value of one observable according to the model.
struct Expectation {
  runtime::Value value;
  runtime::SimTime at = -1;
};

/// Latest observed value of one observable.
struct Observation {
  runtime::Value value;
  runtime::SimTime at = -1;
};

/// The comparator's run of deviating comparisons of one observable.
struct DeviationEpisode {
  int consecutive = 0;
  bool reported = false;
  runtime::SimTime first_deviation = -1;
};

class ObservableTable {
 public:
  static constexpr ObservableId kNone = runtime::SymbolTable::kNone;

  struct Row {
    std::optional<Expectation> expected;  ///< The ModelExecutor's (ISpecInfo).
    std::optional<Observation> observed;  ///< The OutputObserver's (IOutputEvent).
    DeviationEpisode episode;             ///< The Comparator's.
    std::int32_t policy = -1;  ///< The Comparator's: position in the configuration, or -1.
  };

  /// The id of `name`, or kNone when it was never seen.
  ObservableId find(std::string_view name) const { return names_.find(name); }
  /// The id of `name`, with an empty row when it is new.
  ObservableId intern(std::string_view name) {
    const ObservableId id = names_.intern(name);
    if (id == rows_.size()) rows_.emplace_back();
    return id;
  }

  /// A row by id. References stay valid until a new name is interned.
  Row& row(ObservableId id) { return rows_[id]; }
  const Row& row(ObservableId id) const { return rows_[id]; }
  std::size_t size() const { return rows_.size(); }

 private:
  runtime::SymbolTable names_;
  std::vector<Row> rows_;
};

}  // namespace trader::core
