// Fluent construction of awareness monitors.
//
// Every pre-builder call site copied the same ritual: declare a Params
// struct, push ObservableConfig entries, tweak channel latencies, then
// thread the struct through the AwarenessMonitor constructor. The
// builder replaces that with one readable chain:
//
//   auto monitor = MonitorBuilder(sched, bus)
//                      .model(my_spec_model())
//                      .input_topic("suo.in")
//                      .output_topic("suo.out")
//                      .threshold("count", 0.0, /*max_consecutive=*/3)
//                      .on_error([](const ErrorReport& e) { ... })
//                      .build();
//
// model(def) compiles to a ModelProgram: every monitor runs that one
// engine, batched in the shard's ModelArena when a fleet places it.
//
// A builder constructed without a scheduler/bus describes a monitor
// whose home is decided later — ShardedFleet calls build(sched, bus)
// against the owning shard's runtime, which is how one description can
// land on any shard.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/model_program.hpp"
#include "core/monitor.hpp"
#include "statemachine/definition.hpp"

namespace trader::core {

class MonitorBuilder {
 public:
  /// Describe a monitor to be placed later (fleet use).
  MonitorBuilder() = default;
  /// Describe a monitor bound to this scheduler/bus (standalone use).
  MonitorBuilder(runtime::Scheduler& sched, runtime::EventBus& bus)
      : sched_(&sched), bus_(&bus) {}

  /// The executable specification model: with_program(compile_model(def))
  /// (one of model/with_program is required).
  MonitorBuilder& model(statemachine::StateMachineDef def);

  /// Share an already compiled program: N monitors built from the same
  /// ModelProgramPtr store one table set, and when they land in the
  /// same arena their state packs into one dense batch.
  MonitorBuilder& with_program(ModelProgramPtr program);
  /// Batch the model state into `arena` (fleets inject their own via
  /// default_arena; explicit arena() wins).
  MonitorBuilder& arena(std::shared_ptr<ModelArena> arena);
  /// Fleet placement hook: adopts `arena` only when none was set.
  MonitorBuilder& default_arena(std::shared_ptr<ModelArena> arena);
  /// Quiesce comparison while `link_up` reads false: the Comparator
  /// counts each skipped comparison as suppressed (see comparator.hpp).
  /// The hub hands one gate out per slot (AwarenessHub::add_slot).
  MonitorBuilder& link_gate(std::shared_ptr<const std::atomic<bool>> link_up);

  MonitorBuilder& input_topic(std::string topic);
  /// Appends; the first call replaces the default {"tv.output"}.
  MonitorBuilder& output_topic(std::string topic);

  /// Watch `name` with a deviation threshold and consecutive-deviation
  /// limit (§4.3 tolerance machinery). Repeatable, one call per
  /// observable; replaces an earlier entry of the same name.
  MonitorBuilder& threshold(const std::string& name, double threshold, int max_consecutive = 1);
  /// Full per-observable policy (event/time-based flags included).
  MonitorBuilder& observe(ObservableConfig oc);

  MonitorBuilder& comparison_period(runtime::SimDuration period);
  MonitorBuilder& startup_grace(runtime::SimDuration grace);
  MonitorBuilder& input_channel(runtime::ChannelConfig channel);
  MonitorBuilder& output_channel(runtime::ChannelConfig channel);
  /// Both directions at once (the common symmetric-latency case).
  MonitorBuilder& channel_latency(runtime::SimDuration base_latency);

  MonitorBuilder& input_mapper(InputMapper mapper);
  MonitorBuilder& output_mapper(OutputMapper mapper);

  /// Recovery hook applied right after construction.
  MonitorBuilder& on_error(RecoveryHandler handler);
  MonitorBuilder& metrics(runtime::MetricsRegistry* metrics);

  /// Build against the scheduler/bus given at construction.
  std::unique_ptr<AwarenessMonitor> build();
  /// Build against an explicit runtime (fleet/shard placement).
  std::unique_ptr<AwarenessMonitor> build(runtime::Scheduler& sched, runtime::EventBus& bus);

  /// Topics this monitor will subscribe to — the fleet reads these to
  /// construct its cross-shard routing table before building.
  const std::string& input_topic() const { return spec_.input_topic; }
  const std::vector<std::string>& output_topics() const { return spec_.output_topics; }

 private:
  runtime::Scheduler* sched_ = nullptr;
  runtime::EventBus* bus_ = nullptr;
  ModelProgramPtr program_;
  std::shared_ptr<ModelArena> arena_;
  MonitorSpec spec_;
  RecoveryHandler on_error_;
  runtime::MetricsRegistry* metrics_ = nullptr;
  bool output_topics_defaulted_ = true;
};

}  // namespace trader::core
