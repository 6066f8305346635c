// Escalating recovery with per-aspect monitors (§3 + §5).
//
// Two aspect monitors (sound, screen) watch the TV through a one-shard
// ShardedFleet; a flaky audio path keeps failing, and the
// RecoveryEscalator climbs the ladder: resync -> restart unit ->
// restart dependents -> full restart -> give up.
//
//   build/examples/escalating_recovery
#include <cstdio>
#include <memory>

#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "faults/injector.hpp"
#include "recovery/escalation.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace core = trader::core;
namespace rec = trader::recovery;
namespace flt = trader::faults;

namespace {

core::MonitorBuilder aspect_monitor(const char* observable) {
  core::MonitorBuilder builder;
  builder.model(tv::build_tv_spec_model())
      .comparison_period(rt::msec(20))
      .startup_grace(rt::msec(100))
      .threshold(observable, 0.0, /*max_consecutive=*/3);
  return builder;
}

}  // namespace

int main() {
  // One shard: the TV lives on the shard's scheduler and bus, and the
  // fleet runs it on this thread together with the monitors.
  core::ShardedFleet fleet;
  rt::Scheduler& sched = fleet.shard(0).sched();
  flt::FaultInjector injector{rt::Rng(5)};
  tv::TvSystem set(sched, fleet.shard(0).bus(), injector);

  fleet.add_monitor("sound", aspect_monitor("sound_level"));
  fleet.add_monitor("screen", aspect_monitor("screen_state"));

  rec::EscalationConfig esc_cfg;
  esc_cfg.failures_per_level = 2;
  esc_cfg.window = rt::sec(60);
  rec::RecoveryEscalator escalator(esc_cfg);

  fleet.set_recovery_handler([&](const core::AspectError& err) {
    const std::string unit = err.aspect == "sound" ? "audio" : "teletext";
    const auto action = escalator.next_action(unit, sched.now());
    std::printf("[%7.1f ms] %s error on '%s' -> escalator says: %s\n", rt::to_ms(sched.now()),
                err.aspect.c_str(), err.report.observable.c_str(), rec::to_string(action));
    switch (action) {
      case rec::RecoveryAction::kResync:
      case rec::RecoveryAction::kRestartUnit:
        set.restart_component(unit);
        break;
      case rec::RecoveryAction::kRestartDependents:
        set.restart_component(unit);
        set.restart_component("osd");
        break;
      case rec::RecoveryAction::kFullRestart:
        for (const char* c : {"audio", "teletext", "osd", "swivel"}) set.restart_component(c);
        break;
      case rec::RecoveryAction::kGiveUp:
        std::printf("             unit flagged for service (give-up)\n");
        break;
    }
  });

  set.start();
  fleet.start();
  set.press(tv::Key::kPower);
  fleet.run_for(rt::msec(400));

  std::printf("a flaky audio command path drops every volume command for short windows;\n"
              "each detection escalates the recovery response:\n\n");
  for (int episode = 0; episode < 6; ++episode) {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", sched.now(),
                                     rt::msec(120), 1.0, {}});
    set.press(tv::Key::kVolumeUp);
    fleet.run_for(rt::sec(2));
  }

  std::printf("\nsummary: %zu errors (sound: %zu, screen: %zu), give-ups: %llu\n",
              fleet.errors().size(), fleet.error_count("sound"), fleet.error_count("screen"),
              static_cast<unsigned long long>(escalator.give_ups()));
  return fleet.error_count("sound") >= 4 ? 0 : 1;
}
