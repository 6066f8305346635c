// Interfaces of the awareness framework, named after Fig. 2 of the paper.
//
//   IControl        — lifecycle control of every framework component
//   IModelImpl      — the executable specification model (the box
//                     "Stateflow Model Implementation"; here: our state
//                     machine engine behind an abstract interface)
//   IErrorNotify    — error reporting from the Comparator
//
// The remaining Fig. 2 interfaces (IInputEvent, IOutputEvent, IEventInfo,
// ISpecInfo, IModelExecutor, IEnableCompare, IConfigInfo) appear as the
// concrete methods of InputObserver, OutputObserver, ModelExecutor,
// Comparator and Configuration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"
#include "statemachine/types.hpp"

namespace trader::core {

/// Lifecycle interface implemented by all framework components (Fig. 2's
/// IControl, provided by every box and used by the Controller).
///
/// Contract: calls follow initialize() -> start() -> stop(), and the
/// whole sequence may repeat for a restart. Implementations must be
/// idempotent at every stage — initialize() after the first call,
/// start() while already running, and stop() while already stopped are
/// no-ops. In particular a component must never double-register
/// periodic work on a repeated start(); the Controller enforces this
/// ordering for the components it drives.
class IControl {
 public:
  virtual ~IControl() = default;
  virtual void initialize() {}
  virtual void start(runtime::SimTime now) { (void)now; }
  virtual void stop() {}
};

/// The executable specification model run by the Model Executor.
///
/// ModelInstance (core/model_program.hpp) adapts one slot of the
/// compiled ModelProgram's BatchExecutor; decorators such as
/// hub::LinkGatedModel wrap it.
class IModelImpl {
 public:
  virtual ~IModelImpl() = default;

  virtual void start(runtime::SimTime now) = 0;
  /// Feed one input event; returns true when the model reacted.
  virtual bool dispatch(const statemachine::SmEvent& ev, runtime::SimTime now) = 0;
  /// Let model-internal timers fire up to `now`.
  virtual void advance_time(runtime::SimTime now) = 0;
  /// Move the model outputs produced since the last drain into `out`,
  /// replacing its contents. `out` may lend its storage to the model's
  /// next outputs, so a caller that keeps one buffer drains without
  /// allocating.
  virtual void drain_outputs(std::vector<statemachine::ModelOutput>& out) = 0;
  /// IEnableCompare: the model may suppress comparison of an observable
  /// while the system is legitimately "between modes" (§4.3).
  virtual bool comparison_enabled(const std::string& observable) const {
    (void)observable;
    return true;
  }
  /// Diagnostic name of the model's current state ("" if not applicable).
  virtual std::string state_name() const { return {}; }
};

/// One detected error (IErrorNotify payload).
struct ErrorReport {
  std::string observable;
  runtime::Value expected;
  runtime::Value observed;
  double deviation = 0.0;
  int consecutive = 0;              ///< Deviating comparisons in a row.
  runtime::SimTime detected_at = 0; ///< When the error was reported.
  runtime::SimTime first_deviation_at = 0;  ///< Start of the episode.

  std::string describe() const;
};

/// Receiver of comparator errors (Fig. 2's IErrorNotify).
class IErrorNotify {
 public:
  virtual ~IErrorNotify() = default;
  virtual void on_error(const ErrorReport& report) = 0;
};

}  // namespace trader::core
