// Common types for the timed hierarchical state machine engine.
//
// The paper models desired TV behaviour as executable timed state
// machines (Stateflow) and runs generated C code inside the Model
// Executor (§4.2/§4.3). This module is the from-scratch substitute: the
// same semantic ingredients — hierarchy, guards, actions, timed
// ("after") transitions, run-to-completion — with a builder API
// instead of a graphical editor.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::statemachine {

/// Index of a state inside a StateMachineDef. kNoState means "none".
using StateId = std::int32_t;
inline constexpr StateId kNoState = -1;

/// An event dispatched into a machine (distinct from runtime::Event to
/// keep the model layer independent of transport details).
struct SmEvent {
  std::string name;
  std::map<std::string, runtime::Value> params;

  static SmEvent named(std::string n) { return SmEvent{std::move(n), {}}; }
};

/// Variable store for a machine instance (the model's "data" part).
class Context {
 public:
  void set(const std::string& key, runtime::Value v) { vars_[key] = std::move(v); }
  void set_int(const std::string& key, std::int64_t v) { vars_[key] = v; }
  void set_num(const std::string& key, double v) { vars_[key] = v; }
  void set_bool(const std::string& key, bool v) { vars_[key] = v; }
  void set_str(const std::string& key, std::string v) { vars_[key] = std::move(v); }

  bool has(const std::string& key) const { return vars_.count(key) > 0; }

  std::int64_t get_int(const std::string& key, std::int64_t dflt = 0) const;
  double get_num(const std::string& key, double dflt = 0.0) const;
  bool get_bool(const std::string& key, bool dflt = false) const;
  std::string get_str(const std::string& key, const std::string& dflt = {}) const;

  const std::map<std::string, runtime::Value>& all() const { return vars_; }
  void clear() { vars_.clear(); }

 private:
  std::map<std::string, runtime::Value> vars_;
};

/// Environment handed to transition/entry/exit actions.
struct ActionEnv {
  Context& vars;
  const SmEvent& event;       ///< Triggering event (empty name for timed/completion).
  runtime::SimTime now;       ///< Virtual time of the step.
  /// Emit a model output (routed to the Model Executor / Comparator).
  std::function<void(const std::string& name, std::map<std::string, runtime::Value>)> emit;
};

using Guard = std::function<bool(const Context&, const SmEvent&)>;
using Action = std::function<void(ActionEnv&)>;

/// A model output produced by an action's `emit`.
struct ModelOutput {
  std::string name;
  std::map<std::string, runtime::Value> fields;
  runtime::SimTime time = 0;
};

}  // namespace trader::statemachine
