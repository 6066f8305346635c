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
  // One drain buffer per thread, not per monitor: a shard's executors
  // run on one thread and a drain never nests. The storage it lends the
  // model comes back from the next model drained, so draining allocates
  // nothing once warm.
  static thread_local std::vector<statemachine::ModelOutput> outputs;
  model_->drain_outputs(outputs);
  for (auto& out : outputs) {
    auto it = out.fields.find("value");
    if (it == out.fields.end()) continue;
    const ObservableId id = table_.intern(out.name);
    table_.row(id).expected = Expectation{std::move(it->second), now};
  }
}

}  // namespace trader::core
