// IModelImpl adapter for Stateflow AND states (MachineSet), which only
// the reference interpreter runs; single-region models run through
// ModelInstance (core/model_program.hpp). Any region's "nocompare[:X]"
// variable disables comparison of X (the IEnableCompare convention).
#pragma once

#include <memory>

#include "core/interfaces.hpp"
#include "statemachine/machine_set.hpp"

namespace trader::core {

/// Runs a parallel composition of per-aspect machines (Stateflow AND
/// states): events fan out to every region, outputs merge, and the
/// IEnableCompare convention is honoured when *any* region disables an
/// observable.
class ParallelModel : public IModelImpl {
 public:
  explicit ParallelModel(statemachine::MachineSet set) : set_(std::move(set)) {}

  void start(runtime::SimTime now) override { set_.start(now); }
  bool dispatch(const statemachine::SmEvent& ev, runtime::SimTime now) override {
    return set_.dispatch(ev, now) > 0;
  }
  void advance_time(runtime::SimTime now) override { set_.advance_time(now); }
  std::vector<statemachine::ModelOutput> drain_outputs() override {
    return set_.drain_outputs();
  }
  bool comparison_enabled(const std::string& observable) const override;
  std::string state_name() const override;

  statemachine::MachineSet& set() { return set_; }

 private:
  statemachine::MachineSet set_;
};

}  // namespace trader::core
