// Events and observable values.
//
// The awareness framework (Fig. 1/2 of the paper) is glued together by
// events: key presses from the remote control, mode changes inside the
// SUO, outputs such as sound level and screen state. An Event is a named
// record with a topic (routing key), a timestamp, and a small set of
// typed fields.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "runtime/sim_time.hpp"

namespace trader::runtime {

/// A typed observable value. Integers cover modes and counters, doubles
/// cover analog quantities (volume level, quality), strings cover
/// symbolic states, bools cover flags.
using Value = std::variant<std::int64_t, double, std::string, bool>;

/// Render a Value for logs and error reports.
std::string to_string(const Value& v);

/// Compare two values and return a numeric deviation:
///  - arithmetic vs arithmetic: |a - b| (bool promoted to 0/1)
///  - string vs string: 0 if equal else 1
///  - mismatched categories: 1 (maximal categorical deviation)
double deviation(const Value& a, const Value& b);

/// True when both values hold arithmetic (int/double/bool) content.
bool both_numeric(const Value& a, const Value& b);

/// An event flowing through the system: SUO inputs, SUO outputs,
/// model outputs, detector notifications.
struct Event {
  std::string topic;   ///< Routing key, e.g. "tv.input", "tv.output".
  std::string name;    ///< Event name, e.g. "key_press", "volume".
  std::map<std::string, Value> fields;
  SimTime timestamp = 0;

  /// Fetch a field, or std::nullopt when absent.
  std::optional<Value> field(const std::string& key) const;

  /// Fetch an integer field with a default.
  std::int64_t int_field(const std::string& key, std::int64_t dflt = 0) const;

  /// Fetch a double field with a default (ints are widened).
  double num_field(const std::string& key, double dflt = 0.0) const;

  /// Fetch a string field with a default.
  std::string str_field(const std::string& key, const std::string& dflt = {}) const;

  /// One-line rendering for logs.
  std::string describe() const;
};

/// Recycled storage for events in flight between a send and its
/// delivery. put() copies into a free slot, reusing the strings and
/// field nodes a previous event left there, so a steady stream of
/// similar events allocates nothing; the slot count is the largest
/// number of events ever held at once. A slot's address is stable
/// until it is released, even while later puts grow the store.
class EventSlots {
 public:
  using Index = std::uint32_t;

  /// Copy `ev` into a free slot and return its index.
  Index put(const Event& ev);
  Event& operator[](Index i) { return slots_[i]; }
  /// Return a slot to the free list; its storage stays for the next put.
  void release(Index i) { free_.push_back(i); }

 private:
  std::deque<Event> slots_;
  std::vector<Index> free_;
};

}  // namespace trader::runtime
