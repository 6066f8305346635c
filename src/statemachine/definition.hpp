// Builder-side definition of a timed hierarchical state machine.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "statemachine/types.hpp"

namespace trader::statemachine {

/// A state node. States form a tree rooted at an implicit root (parent
/// kNoState). Composite states have children and an initial child.
struct StateDef {
  std::string name;
  StateId parent = kNoState;
  StateId initial_child = kNoState;  ///< kNoState for leaf states.
  Action on_entry;                   ///< May be empty.
  Action on_exit;                    ///< May be empty.
  std::vector<StateId> children;     ///< Filled by the builder.
};

/// A transition. `event` empty + `after == 0` → completion transition
/// (evaluated after every step); `after > 0` → timed transition firing
/// once the source state has been active for `after`.
struct TransitionDef {
  StateId source = kNoState;
  StateId target = kNoState;  ///< kNoState for internal transitions.
  std::string event;
  runtime::SimDuration after = 0;
  Guard guard;    ///< May be empty (always enabled).
  Action action;  ///< May be empty.
  bool internal = false;  ///< Internal: no exit/entry, stays in source.
  int index = 0;          ///< Definition order = priority among peers.
};

/// Immutable-after-build machine description.
///
/// Throws std::invalid_argument on structural misuse at build time so
/// model errors surface as early as possible (§4.2 reports that modeling
/// errors are easy to make; the checker module adds deeper analyses).
class StateMachineDef {
 public:
  explicit StateMachineDef(std::string name) : name_(std::move(name)) {}

  /// Add a state under `parent` (kNoState = top level). The first child
  /// added to a parent becomes its initial child unless overridden.
  StateId add_state(const std::string& name, StateId parent = kNoState);

  /// Override the initial child of a composite state.
  void set_initial(StateId parent, StateId child);

  void on_entry(StateId state, Action a);
  void on_exit(StateId state, Action a);

  /// Add an event-triggered transition.
  int add_transition(StateId source, StateId target, const std::string& event,
                     Guard guard = nullptr, Action action = nullptr);

  /// Add an internal transition (action only, no state change).
  int add_internal(StateId source, const std::string& event, Guard guard = nullptr,
                   Action action = nullptr);

  /// Add a timed transition firing `after` of dwell time in `source`.
  int add_timed(StateId source, StateId target, runtime::SimDuration after,
                Guard guard = nullptr, Action action = nullptr);

  /// Add a completion transition (fires as soon as guard holds).
  int add_completion(StateId source, StateId target, Guard guard = nullptr,
                     Action action = nullptr);

  /// Set the top-level initial state (defaults to first top-level state).
  void set_top_initial(StateId state);

  // --- Introspection -------------------------------------------------
  const std::string& name() const { return name_; }
  const std::vector<StateDef>& states() const { return states_; }
  const std::vector<TransitionDef>& transitions() const { return transitions_; }
  StateId top_initial() const { return top_initial_; }

  StateId find_state(const std::string& name) const;  ///< kNoState if absent.
  const StateDef& state(StateId id) const { return states_.at(static_cast<std::size_t>(id)); }
  bool is_leaf(StateId id) const { return state(id).children.empty(); }
  bool is_ancestor(StateId maybe_ancestor, StateId s) const;

  /// Full dotted path of a state, e.g. "On.Teletext.Visible".
  std::string path(StateId id) const;

 private:
  void check_state(StateId id) const;

  std::string name_;
  std::vector<StateDef> states_;
  std::vector<TransitionDef> transitions_;
  StateId top_initial_ = kNoState;
};

}  // namespace trader::statemachine
