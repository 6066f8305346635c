#include "core/monitor.hpp"

#include <chrono>

namespace trader::core {

// ----------------------------------------------------------------- Controller

Controller::Controller(runtime::Scheduler& sched, Configuration& config,
                       ModelExecutor& executor, InputObserver& input, OutputObserver& output,
                       Comparator& comparator)
    : sched_(sched),
      config_(config),
      executor_(executor),
      input_(input),
      output_(output),
      comparator_(comparator) {}

void Controller::initialize() {
  if (initialized_) return;
  config_.initialize();
  executor_.initialize();
  input_.initialize();
  output_.initialize();
  comparator_.initialize();
  comparator_.set_notify(this);
  initialized_ = true;
}

void Controller::start(runtime::SimTime now) {
  if (running_) return;  // double-start must not schedule a second tick
  if (!initialized_) initialize();
  executor_.start(now);
  input_.start(now);
  output_.start(now);
  comparator_.start(now);
  running_ = true;
  tick_handle_ = sched_.schedule_every(config_.awareness().comparison_period, [this] { tick(); });
  if (trace_ != nullptr) {
    trace_->log(now, runtime::TraceLevel::kInfo, "controller", "awareness monitor started");
  }
}

void Controller::stop() {
  if (!running_) return;
  running_ = false;
  sched_.cancel(tick_handle_);
  tick_handle_ = runtime::TaskHandle();
  input_.stop();
  output_.stop();
}

void Controller::set_metrics(runtime::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ticks_metric_ = nullptr;
    errors_metric_ = nullptr;
    tick_latency_metric_ = nullptr;
    return;
  }
  ticks_metric_ = &metrics->counter("controller.ticks");
  errors_metric_ = &metrics->counter("controller.errors");
  tick_latency_metric_ = &metrics->histogram("controller.tick_latency_ns");
}

void Controller::tick() {
  // The latency histogram samples the first tick and every 16th after
  // it: two clock reads and the histogram's atomics on every tick would
  // cost an idle fleet more than the tick itself.
  const bool timed = tick_latency_metric_ != nullptr && tick_count_++ % kTickSampleEvery == 0;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const runtime::SimTime now = sched_.now();
  executor_.advance(now);
  comparator_.compare_all(now);
  if (ticks_metric_ != nullptr) ticks_metric_->inc();
  if (timed) {
    const auto t1 = std::chrono::steady_clock::now();
    tick_latency_metric_->record(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
}

void Controller::on_error(const ErrorReport& report) {
  errors_.push_back(report);
  if (errors_metric_ != nullptr) errors_metric_->inc();
  if (trace_ != nullptr) {
    trace_->log(report.detected_at, runtime::TraceLevel::kError, "comparator", report.describe());
  }
  if (recovery_) recovery_(report);
}

// ----------------------------------------------------------- AwarenessMonitor

AwarenessMonitor::AwarenessMonitor(runtime::Scheduler& sched, runtime::EventBus& bus,
                                   std::unique_ptr<ModelInstance> model, MonitorSpec spec)
    : sched_(sched),
      configuration_(spec.config),
      executor_(std::move(model), observables_),
      input_(sched, bus, spec.input_topic, spec.config.input_channel,
             std::move(spec.input_mapper),
             [this](const statemachine::SmEvent& ev, runtime::SimTime now) {
               executor_.on_input(ev, now);
             }),
      output_(sched, bus, spec.output_topics, spec.config.output_channel,
              std::move(spec.output_mapper), observables_),
      comparator_(configuration_, executor_, output_, observables_, std::move(spec.link_up)),
      controller_(sched, configuration_, executor_, input_, output_, comparator_) {
  output_.on_fresh([this](ObservableId observable, runtime::SimTime now) {
    comparator_.on_fresh_observation(observable, now);
  });
}

void AwarenessMonitor::start() {
  controller_.initialize();
  controller_.start(sched_.now());
}

void AwarenessMonitor::stop() { controller_.stop(); }

void AwarenessMonitor::set_metrics(runtime::MetricsRegistry* m) {
  controller_.set_metrics(m);
  comparator_.set_metrics(m);
  executor_.set_metrics(m);
}

}  // namespace trader::core
