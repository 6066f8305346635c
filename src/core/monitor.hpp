// Controller and AwarenessMonitor facade (Fig. 2).
//
// "The Controller initiates and controls all components, except for the
// Configuration component which is controlled by the Model Executor."
// AwarenessMonitor assembles one complete monitor: observers, model
// executor, comparator, controller, configuration — the unit of which a
// complex system will typically run several, "for different components,
// different aspects, and different kinds of faults" (§3).
//
// Construction goes through MonitorBuilder (monitor_builder.hpp); the
// raw MonitorSpec constructor remains for the builder.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "core/configuration.hpp"
#include "core/model_executor.hpp"
#include "core/observers.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_log.hpp"

namespace trader::core {

/// Recovery hook invoked on every reported error (the link from error
/// detection to the diagnosis/recovery stages of Fig. 1).
using RecoveryHandler = std::function<void(const ErrorReport&)>;

/// Complete wiring description of one awareness monitor. Produced by
/// MonitorBuilder.
struct MonitorSpec {
  AwarenessConfig config;
  std::string input_topic = "tv.input";
  std::vector<std::string> output_topics = {"tv.output"};
  InputMapper input_mapper;    ///< Default mapper when empty.
  OutputMapper output_mapper;  ///< Default mapper when empty.
  /// Comparator link gate: comparison quiesces while it reads false
  /// (none: always compare).
  std::shared_ptr<const std::atomic<bool>> link_up;
};

/// The Controller box: lifecycle + error routing.
///
/// Lifecycle contract (IControl): initialize() must precede start();
/// start() auto-initializes when the caller skipped it. The sequence
/// initialize -> start -> stop may repeat; initialize() after the first
/// call, start() while running and stop() while stopped are idempotent
/// no-ops — a double start() must never schedule a second tick task.
class Controller : public IControl, public IErrorNotify {
 public:
  Controller(runtime::Scheduler& sched, Configuration& config, ModelExecutor& executor,
             InputObserver& input, OutputObserver& output, Comparator& comparator);

  void initialize() override;
  void start(runtime::SimTime now) override;
  void stop() override;

  void on_error(const ErrorReport& report) override;

  void set_recovery_handler(RecoveryHandler h) { recovery_ = std::move(h); }
  void set_trace(runtime::TraceLog* trace) { trace_ = trace; }
  /// Attach a metrics registry: tick count, wall-clock tick latency and
  /// error count are recorded under "controller.*". Every tick counts;
  /// the latency of the first tick and of every 16th after it is timed.
  void set_metrics(runtime::MetricsRegistry* metrics);

  bool running() const { return running_; }
  const std::vector<ErrorReport>& errors() const { return errors_; }

 private:
  void tick();

  static constexpr std::uint32_t kTickSampleEvery = 16;

  runtime::Scheduler& sched_;
  Configuration& config_;
  ModelExecutor& executor_;
  InputObserver& input_;
  OutputObserver& output_;
  Comparator& comparator_;
  RecoveryHandler recovery_;
  runtime::TraceLog* trace_ = nullptr;
  runtime::Counter* ticks_metric_ = nullptr;
  runtime::Counter* errors_metric_ = nullptr;
  runtime::Histogram* tick_latency_metric_ = nullptr;
  runtime::TaskHandle tick_handle_;
  std::uint32_t tick_count_ = 0;  ///< Ticks run, for latency sampling.
  std::vector<ErrorReport> errors_;
  bool initialized_ = false;
  bool running_ = false;
};

/// One fully wired awareness monitor.
class AwarenessMonitor {
 public:
  AwarenessMonitor(runtime::Scheduler& sched, runtime::EventBus& bus,
                   std::unique_ptr<ModelInstance> model, MonitorSpec spec);

  /// Initialize and start every component (Controller included).
  /// Idempotent: calling start() on a running monitor is a no-op, and a
  /// stopped monitor can be started again.
  void start();
  void stop();
  bool running() const { return controller_.running(); }

  void set_recovery_handler(RecoveryHandler h) { controller_.set_recovery_handler(std::move(h)); }
  void set_trace(runtime::TraceLog* trace) { controller_.set_trace(trace); }
  /// Wire controller/comparator/model-executor instruments into `m`.
  void set_metrics(runtime::MetricsRegistry* m);

  const std::vector<ErrorReport>& errors() const { return controller_.errors(); }
  const ComparatorStats& stats() const { return comparator_.stats(); }
  Configuration& configuration() { return configuration_; }
  ModelExecutor& executor() { return executor_; }
  const OutputObserver& output_observer() const { return output_; }
  Comparator& comparator() { return comparator_; }

 private:
  runtime::Scheduler& sched_;
  ObservableTable observables_;  ///< Shared by executor, observer and comparator.
  Configuration configuration_;
  ModelExecutor executor_;
  InputObserver input_;
  OutputObserver output_;
  Comparator comparator_;
  Controller controller_;
};

}  // namespace trader::core
