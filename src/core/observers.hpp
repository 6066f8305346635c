// Input and Output Observers (Fig. 2).
//
// The SUO publishes its input and output events on the event bus; the
// observers receive them *across the process boundary* — a latency
// channel standing in for the Unix domain sockets of the Linux
// implementation — and hand them to the Model Executor / Comparator.
// The SUO-side adaptation is minimal by design (§4.3: "The SUO has to be
// adapted slightly, to send messages with relevant input and output
// events"): it only needs to publish events, which TvSystem already does.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/interfaces.hpp"
#include "core/observable_table.hpp"
#include "runtime/channel.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/types.hpp"

namespace trader::core {

/// Maps a SUO input event to a model event (IInputEvent -> IEventInfo).
using InputMapper = std::function<std::optional<statemachine::SmEvent>(const runtime::Event&)>;

/// Maps a SUO output event to (observable, value) (IOutputEvent).
using OutputMapper =
    std::function<std::optional<std::pair<std::string, runtime::Value>>(const runtime::Event&)>;

/// Default input mapping: a "key" string field becomes the event name;
/// otherwise the event's own name is used and fields become parameters.
std::optional<statemachine::SmEvent> default_input_mapper(const runtime::Event& ev);

/// Default output mapping: event name = observable, field "value" = value.
std::optional<std::pair<std::string, runtime::Value>> default_output_mapper(
    const runtime::Event& ev);

/// Observes SUO input events and delivers them (after channel latency)
/// to a sink — the Model Executor.
class InputObserver : public IControl {
 public:
  using Sink = std::function<void(const statemachine::SmEvent&, runtime::SimTime)>;

  InputObserver(runtime::Scheduler& sched, runtime::EventBus& bus, std::string topic,
                runtime::ChannelConfig channel, InputMapper mapper, Sink sink);

  void start(runtime::SimTime now) override;
  void stop() override;

  std::uint64_t observed_events() const { return observed_; }

 private:
  void deliver(runtime::Event& ev);

  runtime::Scheduler& sched_;
  runtime::EventBus& bus_;
  std::string topic_;
  InputMapper mapper_;  ///< Empty: default_input_mapper, without a copy.
  Sink sink_;
  runtime::LatencyChannel channel_;
  runtime::Subscription sub_;
  std::uint64_t observed_ = 0;
};

/// Observes SUO output events; maintains the observed-value table the
/// Comparator reads, and notifies it for event-based comparison.
class OutputObserver : public IControl {
 public:
  /// Called on each fresh observation (event-based comparison trigger)
  /// with the observable's id in the observer's ObservableTable.
  using FreshHandler = std::function<void(ObservableId observable, runtime::SimTime)>;

  /// `observables` is the monitor's shared table (see ObservableTable).
  OutputObserver(runtime::Scheduler& sched, runtime::EventBus& bus,
                 std::vector<std::string> topics, runtime::ChannelConfig channel,
                 OutputMapper mapper, ObservableTable& observables);

  void start(runtime::SimTime now) override;
  void stop() override;

  void on_fresh(FreshHandler h) { fresh_ = std::move(h); }

  /// The observed-value table (IOutputEvent consumer side); nullptr
  /// when `observable` has not been observed yet. Valid until the
  /// monitor meets an observable it has not seen before.
  const Observation* observed(const std::string& observable) const {
    const ObservableId id = table_.find(observable);
    return id == ObservableTable::kNone ? nullptr : observed(id);
  }
  /// The same by id: no lookup.
  const Observation* observed(ObservableId id) const {
    const auto& o = table_.row(id).observed;
    return o ? &*o : nullptr;
  }

  std::uint64_t observed_events() const { return observed_; }

 private:
  void deliver(const runtime::Event& ev);
  void record(const std::string& observable, const runtime::Value& value);

  runtime::Scheduler& sched_;
  runtime::EventBus& bus_;
  std::vector<std::string> topics_;
  OutputMapper mapper_;  ///< Empty: default_output_mapper, applied in place.
  runtime::LatencyChannel channel_;
  std::vector<runtime::Subscription> subs_;
  FreshHandler fresh_;
  ObservableTable& table_;
  std::uint64_t observed_ = 0;
};

}  // namespace trader::core
