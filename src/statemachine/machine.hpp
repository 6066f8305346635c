// One executable state machine: a BatchExecutor with one slot.
//
// The compiled ModelProgram on a BatchExecutor (program.hpp, batch.hpp)
// is the one engine in src/. StateMachine is the handle for code that
// steps a single machine — the §4.2 validation tools (TestScript,
// RandomWalkExplorer), tests, benches and perfbench's ledger replay —
// so the dispatch, exit and entry rules exist once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "statemachine/batch.hpp"

namespace trader::statemachine {

/// Executable instance of a StateMachineDef.
///
/// UML-style semantics: external events are dispatched to the innermost
/// active state first; firing a transition exits up to the transition
/// scope boundary, runs the action, and enters the target (drilling down
/// through initial children). After every microstep, completion
/// transitions run until quiescence (bounded to catch modeling
/// livelocks, which §4.2 reports are easy to introduce).
class StateMachine {
 public:
  /// Compile `def` for this machine alone.
  explicit StateMachine(const StateMachineDef& def) : StateMachine(ModelProgram::compile(def)) {}
  /// Run an already compiled program (shared with other machines).
  explicit StateMachine(ModelProgramPtr program)
      : exec_(std::move(program)), id_(exec_.add_instance()) {}

  /// Enter the initial configuration at time `now`.
  void start(runtime::SimTime now) { exec_.start(id_, now); }
  /// Dispatch an external event. Returns true when any transition fired.
  bool dispatch(const SmEvent& ev, runtime::SimTime now) { return exec_.dispatch(id_, ev, now); }
  /// Fire all timed transitions due at or before `now`, in due order.
  /// Returns the number of timed transitions fired.
  int advance_time(runtime::SimTime now) { return exec_.advance_time(id_, now); }
  /// Earliest pending timed-transition deadline, or -1 when none.
  runtime::SimTime next_deadline() const { return exec_.next_deadline(id_); }

  // --- State inspection ----------------------------------------------
  bool started() const { return exec_.started(id_); }
  /// True when `name` (bare or dotted path) is in the active configuration.
  bool in(const std::string& name) const { return exec_.in(id_, name); }
  /// Active leaf state's dotted path ("" before start()).
  std::string active_leaf() const { return exec_.active_leaf(id_); }
  /// Active configuration from top-level state to leaf: the dotted
  /// prefixes of the leaf's path.
  std::vector<std::string> active_path() const {
    std::vector<std::string> out;
    const std::string leaf = active_leaf();
    if (leaf.empty()) return out;
    for (std::size_t end = leaf.find('.');; end = leaf.find('.', end + 1)) {
      out.push_back(leaf.substr(0, end));
      if (end == std::string::npos) return out;
    }
  }

  Context& vars() { return exec_.vars(id_); }
  const Context& vars() const { return exec_.vars(id_); }

  /// Outputs emitted since the last drain (FIFO).
  std::vector<ModelOutput> drain_outputs() { return exec_.drain_outputs(id_); }

  /// True when a run-to-completion step exceeded the microstep bound
  /// (modeling livelock); sticky until reset().
  bool livelock_detected() const { return exec_.livelock_detected(id_); }

  /// Reset to the never-started state (vars cleared).
  void reset() {
    exec_.release(id_);
    id_ = exec_.add_instance();
  }

  /// Total transitions fired (for overhead accounting, E11).
  std::uint64_t transitions_fired() const { return exec_.transitions_fired(id_); }

 private:
  BatchExecutor exec_;
  BatchExecutor::InstanceId id_;
};

}  // namespace trader::statemachine
