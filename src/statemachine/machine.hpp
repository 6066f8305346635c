// Reference interpreter for timed hierarchical state machines. Nothing
// else in src/ uses it: monitors and the §4.2 validation tools
// (TestScript, RandomWalkExplorer) run the compiled ModelProgram
// (program.hpp). It stays as the reference oracle that exec_test holds
// the compiled program to, the baseline the benches compare against,
// and perfbench's ledger replay.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "statemachine/definition.hpp"

namespace trader::statemachine {

/// Executable instance of a StateMachineDef.
///
/// UML-style semantics: external events are dispatched to the innermost
/// active state first; firing a transition exits up to the transition
/// scope boundary, runs the action, and enters the target (drilling down
/// through initial children). After every microstep,
/// completion transitions run until quiescence (bounded to catch
/// modeling livelocks, which §4.2 reports are easy to introduce).
class StateMachine {
 public:
  explicit StateMachine(const StateMachineDef& def);

  /// Enter the initial configuration at time `now`.
  void start(runtime::SimTime now);

  /// Dispatch an external event. Returns true when any transition fired.
  bool dispatch(const SmEvent& ev, runtime::SimTime now);

  /// Fire all timed transitions due at or before `now`, in due order.
  /// Returns the number of timed transitions fired.
  int advance_time(runtime::SimTime now);

  /// Earliest pending timed-transition deadline, or -1 when none.
  runtime::SimTime next_deadline() const;

  // --- State inspection ----------------------------------------------
  bool started() const { return !active_.empty(); }
  /// True when `name` (bare or dotted path) is in the active configuration.
  bool in(const std::string& name) const;
  /// Active leaf state's dotted path ("" before start()).
  std::string active_leaf() const;
  /// Active configuration from top-level state to leaf (dotted paths).
  std::vector<std::string> active_path() const;

  Context& vars() { return vars_; }
  const Context& vars() const { return vars_; }

  /// Outputs emitted since the last drain (FIFO).
  std::vector<ModelOutput> drain_outputs();

  /// True when a run-to-completion step exceeded the microstep bound
  /// (modeling livelock); sticky until reset().
  bool livelock_detected() const { return livelock_; }

  /// Reset to the never-started state (vars cleared).
  void reset();

  /// Total transitions fired (for overhead accounting, E11).
  std::uint64_t transitions_fired() const { return fired_; }

 private:
  static constexpr int kMaxMicrosteps = 64;

  // Innermost-first search for an enabled transition on `ev`.
  const TransitionDef* select_transition(const SmEvent& ev) const;
  // Enabled completion transition, innermost-first.
  const TransitionDef* select_completion() const;
  // Fire a transition; `now` is the semantic instant of the step.
  void fire(const TransitionDef& t, const SmEvent& ev, runtime::SimTime now);
  void run_completions(runtime::SimTime now);

  void enter_from(StateId boundary, StateId target, const SmEvent& ev, runtime::SimTime now);
  void exit_to(StateId boundary, const SmEvent& ev, runtime::SimTime now);
  void run_action(const Action& a, const SmEvent& ev, runtime::SimTime now);

  bool is_active(StateId s) const;
  runtime::SimTime entry_time(StateId s) const;

  const StateMachineDef& def_;
  Context vars_;
  std::vector<StateId> active_;  // root..leaf
  std::map<StateId, runtime::SimTime> entered_at_;
  std::vector<ModelOutput> outputs_;
  bool livelock_ = false;
  std::uint64_t fired_ = 0;
};

}  // namespace trader::statemachine
