// Test scripts against executable models.
//
// §4.2 mentions "test scripts to improve model quality". A TestScript is
// a linear scenario — inject events, let virtual time pass, assert on
// states / variables / emitted outputs — run on a StateMachine, a
// one-slot batch of the compiled ModelProgram every monitor runs. Model
// validation suites in tests/ are built from these.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "statemachine/definition.hpp"

namespace trader::statemachine {

/// Script steps.
struct Inject {
  SmEvent event;
};
struct Advance {
  runtime::SimDuration by;
};
struct ExpectState {
  std::string state;  ///< Bare name or dotted path expected active.
};
struct ExpectNotState {
  std::string state;
};
struct ExpectVar {
  std::string key;
  runtime::Value value;
  double tolerance = 0.0;  ///< For numeric comparison.
};
struct ExpectOutput {
  std::string name;  ///< An output with this name must have been emitted
                     ///< since the previous step.
};

using ScriptStep =
    std::variant<Inject, Advance, ExpectState, ExpectNotState, ExpectVar, ExpectOutput>;

/// One failed expectation.
struct ScriptFailure {
  std::size_t step_index = 0;
  std::string message;
};

/// Result of a script run.
struct ScriptResult {
  std::vector<ScriptFailure> failures;
  runtime::SimTime end_time = 0;
  bool passed() const { return failures.empty(); }
};

/// A named scenario.
class TestScript {
 public:
  explicit TestScript(std::string name) : name_(std::move(name)) {}

  TestScript& inject(SmEvent ev) {
    steps_.push_back(Inject{std::move(ev)});
    return *this;
  }
  TestScript& inject(const std::string& event_name) {
    return inject(SmEvent::named(event_name));
  }
  TestScript& advance(runtime::SimDuration by) {
    steps_.push_back(Advance{by});
    return *this;
  }
  TestScript& expect_state(std::string s) {
    steps_.push_back(ExpectState{std::move(s)});
    return *this;
  }
  TestScript& expect_not_state(std::string s) {
    steps_.push_back(ExpectNotState{std::move(s)});
    return *this;
  }
  TestScript& expect_var(std::string key, runtime::Value v, double tol = 0.0) {
    steps_.push_back(ExpectVar{std::move(key), std::move(v), tol});
    return *this;
  }
  TestScript& expect_output(std::string name) {
    steps_.push_back(ExpectOutput{std::move(name)});
    return *this;
  }

  const std::string& name() const { return name_; }
  const std::vector<ScriptStep>& steps() const { return steps_; }

  /// Compile `def` and run the script on a fresh instance started at
  /// `start_time`.
  ScriptResult run(const StateMachineDef& def, runtime::SimTime start_time = 0) const;

 private:
  std::string name_;
  std::vector<ScriptStep> steps_;
};

}  // namespace trader::statemachine
