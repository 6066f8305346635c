// Interfaces of the awareness framework, named after Fig. 2 of the paper.
//
//   IControl        — lifecycle control of every framework component
//   IErrorNotify    — error reporting from the Comparator
//
// The remaining Fig. 2 interfaces (IInputEvent, IOutputEvent, IEventInfo,
// ISpecInfo, IModelExecutor, IEnableCompare, IConfigInfo) appear as the
// concrete methods of InputObserver, OutputObserver, ModelExecutor,
// Comparator and Configuration; the "Stateflow Model Implementation"
// box is the concrete ModelInstance (core/model_program.hpp).
#pragma once

#include <string>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

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
