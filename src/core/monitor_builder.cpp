#include "core/monitor_builder.hpp"

#include <stdexcept>
#include <utility>

namespace trader::core {

MonitorBuilder& MonitorBuilder::model(statemachine::StateMachineDef def) {
  return with_program(compile_model(std::move(def)));
}

MonitorBuilder& MonitorBuilder::with_program(ModelProgramPtr program) {
  program_ = std::move(program);
  return *this;
}

MonitorBuilder& MonitorBuilder::arena(std::shared_ptr<ModelArena> arena) {
  arena_ = std::move(arena);
  return *this;
}

MonitorBuilder& MonitorBuilder::default_arena(std::shared_ptr<ModelArena> arena) {
  if (!arena_) arena_ = std::move(arena);
  return *this;
}

MonitorBuilder& MonitorBuilder::link_gate(std::shared_ptr<const std::atomic<bool>> link_up) {
  spec_.link_up = std::move(link_up);
  return *this;
}

MonitorBuilder& MonitorBuilder::input_topic(std::string topic) {
  spec_.input_topic = std::move(topic);
  return *this;
}

MonitorBuilder& MonitorBuilder::output_topic(std::string topic) {
  if (output_topics_defaulted_) {
    spec_.output_topics.clear();
    output_topics_defaulted_ = false;
  }
  spec_.output_topics.push_back(std::move(topic));
  return *this;
}

MonitorBuilder& MonitorBuilder::threshold(const std::string& name, double threshold,
                                          int max_consecutive) {
  ObservableConfig oc;
  oc.name = name;
  oc.threshold = threshold;
  oc.max_consecutive = max_consecutive;
  return observe(std::move(oc));
}

MonitorBuilder& MonitorBuilder::observe(ObservableConfig oc) {
  for (auto& existing : spec_.config.observables) {
    if (existing.name == oc.name) {
      existing = std::move(oc);
      return *this;
    }
  }
  spec_.config.observables.push_back(std::move(oc));
  return *this;
}

MonitorBuilder& MonitorBuilder::comparison_period(runtime::SimDuration period) {
  spec_.config.comparison_period = period;
  return *this;
}

MonitorBuilder& MonitorBuilder::startup_grace(runtime::SimDuration grace) {
  spec_.config.startup_grace = grace;
  return *this;
}

MonitorBuilder& MonitorBuilder::input_channel(runtime::ChannelConfig channel) {
  spec_.config.input_channel = channel;
  return *this;
}

MonitorBuilder& MonitorBuilder::output_channel(runtime::ChannelConfig channel) {
  spec_.config.output_channel = channel;
  return *this;
}

MonitorBuilder& MonitorBuilder::channel_latency(runtime::SimDuration base_latency) {
  spec_.config.input_channel.base_latency = base_latency;
  spec_.config.output_channel.base_latency = base_latency;
  return *this;
}

MonitorBuilder& MonitorBuilder::input_mapper(InputMapper mapper) {
  spec_.input_mapper = std::move(mapper);
  return *this;
}

MonitorBuilder& MonitorBuilder::output_mapper(OutputMapper mapper) {
  spec_.output_mapper = std::move(mapper);
  return *this;
}

MonitorBuilder& MonitorBuilder::on_error(RecoveryHandler handler) {
  on_error_ = std::move(handler);
  return *this;
}

MonitorBuilder& MonitorBuilder::metrics(runtime::MetricsRegistry* metrics) {
  metrics_ = metrics;
  return *this;
}

std::unique_ptr<AwarenessMonitor> MonitorBuilder::build() {
  if (sched_ == nullptr || bus_ == nullptr) {
    throw std::logic_error(
        "MonitorBuilder::build(): no scheduler/bus bound; construct with "
        "MonitorBuilder(sched, bus) or use build(sched, bus)");
  }
  return build(*sched_, *bus_);
}

std::unique_ptr<AwarenessMonitor> MonitorBuilder::build(runtime::Scheduler& sched,
                                                        runtime::EventBus& bus) {
  if (!program_) {
    throw std::logic_error(
        "MonitorBuilder::build(): no model set; call model(...) or with_program(...) first");
  }
  auto model = arena_ ? arena_->make_instance(program_) : std::make_unique<ModelInstance>(program_);
  auto monitor = std::make_unique<AwarenessMonitor>(sched, bus, std::move(model), spec_);
  if (on_error_) monitor->set_recovery_handler(std::move(on_error_));
  if (metrics_ != nullptr) monitor->set_metrics(metrics_);
  return monitor;
}

}  // namespace trader::core
