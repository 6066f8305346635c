// Model Executor (Fig. 2): drives the executable specification model
// with input-event notifications from the Input Observer and maintains
// the expected-value table the Comparator reads (ISpecInfo).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/interfaces.hpp"
#include "runtime/metrics.hpp"

namespace trader::core {

/// Expected value of one observable according to the model.
struct Expectation {
  runtime::Value value;
  runtime::SimTime at = -1;
};

class ModelExecutor : public IControl {
 public:
  explicit ModelExecutor(std::unique_ptr<IModelImpl> model) : model_(std::move(model)) {}

  void start(runtime::SimTime now) override;

  /// Input-event notification (from the Input Observer).
  void on_input(const statemachine::SmEvent& ev, runtime::SimTime now);

  /// Let model timers fire (called from the periodic awareness tick).
  void advance(runtime::SimTime now);

  /// ISpecInfo: the model's expected value for an observable, or
  /// nullptr when the model has not produced one yet.
  const Expectation* expected(const std::string& observable) const;

  /// IEnableCompare pass-through.
  bool comparison_enabled(const std::string& observable) const {
    return model_->comparison_enabled(observable);
  }

  std::string model_state() const { return model_->state_name(); }
  IModelImpl& model() { return *model_; }

  std::uint64_t inputs_processed() const { return inputs_; }

  /// Count processed model inputs under "model.inputs".
  void set_metrics(runtime::MetricsRegistry* metrics) {
    inputs_metric_ = metrics != nullptr ? &metrics->counter("model.inputs") : nullptr;
  }

 private:
  void drain(runtime::SimTime now);

  std::unique_ptr<IModelImpl> model_;
  std::map<std::string, Expectation> table_;
  runtime::Counter* inputs_metric_ = nullptr;
  std::uint64_t inputs_ = 0;
};

}  // namespace trader::core
