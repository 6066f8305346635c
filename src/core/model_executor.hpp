// Model Executor (Fig. 2): drives the executable specification model
// with input-event notifications from the Input Observer and maintains
// the expected-value table the Comparator reads (ISpecInfo).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/interfaces.hpp"
#include "core/model_program.hpp"
#include "core/observable_table.hpp"
#include "runtime/metrics.hpp"

namespace trader::core {

class ModelExecutor : public IControl {
 public:
  /// `observables` is the monitor's shared table (see ObservableTable).
  ModelExecutor(std::unique_ptr<ModelInstance> model, ObservableTable& observables)
      : model_(std::move(model)), table_(observables) {}

  void start(runtime::SimTime now) override;

  /// Input-event notification (from the Input Observer).
  void on_input(const statemachine::SmEvent& ev, runtime::SimTime now);

  /// Let model timers fire (called from the periodic awareness tick).
  void advance(runtime::SimTime now);

  /// ISpecInfo: the model's expected value for an observable, or
  /// nullptr when the model has not produced one yet. Valid until the
  /// monitor meets an observable it has not seen before.
  const Expectation* expected(const std::string& observable) const {
    const ObservableId id = table_.find(observable);
    return id == ObservableTable::kNone ? nullptr : expected(id);
  }
  /// The same by id: no lookup.
  const Expectation* expected(ObservableId id) const {
    const auto& e = table_.row(id).expected;
    return e ? &*e : nullptr;
  }

  /// IEnableCompare pass-through.
  bool comparison_enabled(const std::string& observable) const {
    return model_->comparison_enabled(observable);
  }

  std::string model_state() const { return model_->state_name(); }

  std::uint64_t inputs_processed() const { return inputs_; }

  /// Count processed model inputs under "model.inputs".
  void set_metrics(runtime::MetricsRegistry* metrics) {
    inputs_metric_ = metrics != nullptr ? &metrics->counter("model.inputs") : nullptr;
  }

 private:
  void drain(runtime::SimTime now);

  std::unique_ptr<ModelInstance> model_;
  ObservableTable& table_;
  runtime::Counter* inputs_metric_ = nullptr;
  std::uint64_t inputs_ = 0;
};

}  // namespace trader::core
