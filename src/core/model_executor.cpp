#include "core/model_executor.hpp"

namespace trader::core {

void ModelExecutor::start(runtime::SimTime now) {
  model_->start(now);
  drain(now);
}

void ModelExecutor::on_input(const statemachine::SmEvent& ev, runtime::SimTime now) {
  ++inputs_;
  if (inputs_metric_ != nullptr) inputs_metric_->inc();
  // Fire timers that were due before this event (e.g. digit timeouts),
  // then the event itself.
  model_->advance_time(now);
  model_->dispatch(ev, now);
  drain(now);
}

void ModelExecutor::advance(runtime::SimTime now) {
  model_->advance_time(now);
  drain(now);
}

void ModelExecutor::drain(runtime::SimTime now) {
  for (const auto& out : model_->drain_outputs()) {
    auto it = out.fields.find("value");
    if (it == out.fields.end()) continue;
    table_[out.name] = Expectation{it->second, now};
  }
}

const Expectation* ModelExecutor::expected(const std::string& observable) const {
  auto it = table_.find(observable);
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace trader::core
