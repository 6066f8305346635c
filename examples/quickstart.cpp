// Quickstart: the smallest complete awareness loop (Fig. 1 of the paper).
//
// A trivial system under observation (a volume knob that applies
// commands) is watched by an awareness monitor running a one-state
// specification model. We inject a lost command and watch the monitor
// detect the divergence and trigger a recovery handler that re-syncs
// the system.
//
//   build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/monitor_builder.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/definition.hpp"

namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace core = trader::core;

namespace {

// --- 1. A system under observation -----------------------------------------
// The SUO only needs minimal adaptation (§4.3): publish its inputs and
// outputs on the bus. This knob occasionally drops a command (the fault).
class VolumeKnob {
 public:
  VolumeKnob(rt::Scheduler& sched, rt::EventBus& bus) : sched_(sched), bus_(bus) {}

  void press_up(bool drop_command = false) {
    rt::Event input;
    input.topic = "knob.in";
    input.name = "key";
    input.fields["key"] = std::string("up");
    input.timestamp = sched_.now();
    bus_.publish(input);

    if (!drop_command) volume_ += 5;  // the dropped command is the fault

    rt::Event output;
    output.topic = "knob.out";
    output.name = "volume";
    output.fields["value"] = std::int64_t{volume_};
    output.timestamp = sched_.now();
    bus_.publish(output);
  }

  void set_volume(int v) { volume_ = v; }
  int volume() const { return volume_; }

 private:
  rt::Scheduler& sched_;
  rt::EventBus& bus_;
  int volume_ = 30;
};

// --- 2. A specification model ----------------------------------------------
sm::StateMachineDef knob_model() {
  sm::StateMachineDef def("knob_spec");
  const auto idle = def.add_state("Idle");
  def.on_entry(idle, [](sm::ActionEnv& env) {
    env.vars.set_int("volume", 30);
    env.emit("volume", {{"value", std::int64_t{30}}});
  });
  def.add_internal(idle, "up", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("volume", env.vars.get_int("volume") + 5);
    env.emit("volume", {{"value", env.vars.get_int("volume")}});
  });
  return def;
}

}  // namespace

int main() {
  rt::Scheduler sched;
  rt::EventBus bus;
  VolumeKnob knob(sched, bus);

  // --- 3. Wire the monitor (Fig. 2), with recovery re-syncing the SUO
  //        from the model's expectation ------------------------------------
  auto monitor = core::MonitorBuilder(sched, bus)
                     .model(knob_model())
                     .input_topic("knob.in")
                     .output_topic("knob.out")
                     // exact agreement required, but only after 3
                     // consecutive deviations (§4.3 tolerance)
                     .threshold("volume", 0.0, /*max_consecutive=*/3)
                     .comparison_period(rt::msec(20))
                     .on_error([&](const core::ErrorReport& err) {
                       std::printf("[%6.1f ms] ERROR detected: %s\n", rt::to_ms(err.detected_at),
                                   err.describe().c_str());
                       const auto expected = std::get<std::int64_t>(err.expected);
                       knob.set_volume(static_cast<int>(expected));
                       std::printf("             recovery: volume re-synced to %lld\n",
                                   static_cast<long long>(expected));
                     })
                     .build();

  monitor->start();

  std::printf("pressing volume-up five times, dropping the third command...\n");
  for (int i = 0; i < 5; ++i) {
    knob.press_up(/*drop_command=*/i == 2);
    sched.run_for(rt::msec(200));
    std::printf("[%6.1f ms] system volume = %d\n", rt::to_ms(sched.now()), knob.volume());
  }

  std::printf("\nerrors reported: %zu (expected 1)\n", monitor->errors().size());
  std::printf("final volume: %d (would be 50 without the dropped command -- recovery\n"
              "restored the model's expectation)\n",
              knob.volume());
  return monitor->errors().size() == 1 ? 0 : 1;
}
