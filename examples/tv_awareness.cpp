// TV awareness demo: the complete Trader loop on the TV simulator.
//
// Runs a realistic remote-control session, injects the paper's signature
// faults one after another (lost volume command, teletext desync,
// teletext crash), and shows the Fig. 1 loop closing each time:
// observation -> error detection -> diagnosis hint -> recovery.
//
//   build/examples/tv_awareness
#include <cstdio>
#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;

namespace {

void show_status(const tv::TvSystem& set, rt::SimTime now, const char* note) {
  std::printf("[%7.1f ms] screen=%-8s sound=%2d channel=%2d ttx_sync=%s  %s\n", rt::to_ms(now),
              set.screen_output().c_str(), set.sound_output(), set.displayed_channel(),
              set.teletext_content_ok() ? "ok " : "BAD", note);
}

}  // namespace

int main() {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(2026)};
  tv::TvSystem set(sched, bus, injector);

  // Awareness monitor over the partial user-view model, with a recovery
  // policy that re-syncs the offending component from control beliefs.
  int recoveries = 0;
  core::MonitorBuilder builder(sched, bus);
  builder.model(tv::build_tv_spec_model())
      .comparison_period(rt::msec(20))
      .startup_grace(rt::msec(100))
      .channel_latency(rt::usec(300))
      .on_error([&](const core::ErrorReport& err) {
        std::printf("           >>> comparator error on '%s' (expected %s, observed %s)\n",
                    err.observable.c_str(), rt::to_string(err.expected).c_str(),
                    rt::to_string(err.observed).c_str());
        // Simple diagnosis: map the observable to the component to repair.
        const std::string component = err.observable == "sound_level"  ? "audio"
                                      : err.observable == "screen_state" ? "teletext"
                                                                         : "osd";
        set.restart_component(component);
        ++recoveries;
        std::printf("           >>> recovery: restarted '%s' and replayed user settings\n",
                    component.c_str());
      });
  for (const char* name : {"sound_level", "screen_state", "channel", "powered"}) {
    builder.threshold(name, 0.0, /*max_consecutive=*/3);
  }
  auto monitor = builder.build();

  // Mode-consistency checker (the §4.3 teletext detector) runs alongside.
  det::ModeConsistencyChecker mode_checker;
  for (auto& rule : det::tv_mode_rules()) mode_checker.add_rule(rule);
  det::DetectionLog detections;
  sched.schedule_every(rt::msec(40), [&] {
    if (mode_checker.check(set.mode_snapshot(), sched.now(), detections) > 0) {
      const auto& d = detections.all().back();
      std::printf("           >>> mode checker: %s (%s)\n", d.subject.c_str(),
                  d.message.c_str());
    }
  });

  set.start();
  monitor->start();

  std::printf("--- normal use -------------------------------------------------\n");
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(400));
  show_status(set, sched.now(), "powered on");
  set.press(tv::Key::kVolumeUp);
  set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::msec(400));
  show_status(set, sched.now(), "volume up x2");
  set.enter_channel(12);
  sched.run_for(rt::msec(400));
  show_status(set, sched.now(), "channel 12");

  std::printf("--- fault 1: volume command lost --------------------------------\n");
  auto fault1 = injector.schedule(
      flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", sched.now(), rt::msec(100), 1.0,
                     {}});
  (void)fault1;
  set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::sec(1));
  show_status(set, sched.now(), "after detection + recovery");

  std::printf("--- fault 2: teletext loses a channel change ---------------------\n");
  set.press(tv::Key::kTeletext);
  sched.run_for(rt::msec(400));
  set.press(tv::Key::kBack);
  sched.run_for(rt::msec(200));
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.teletext", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kChannelUp);  // notification to teletext lost
  sched.run_for(rt::msec(200));
  set.press(tv::Key::kTeletext);   // user opens stale teletext
  sched.run_for(rt::sec(1));
  show_status(set, sched.now(), "after mode-checker detection");
  set.restart_component("teletext");
  sched.run_for(rt::msec(200));
  show_status(set, sched.now(), "after teletext re-sync");

  std::printf("--- fault 3: teletext engine crash -------------------------------\n");
  injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "teletext", sched.now(),
                                   rt::msec(100), 1.0, {}});
  sched.run_for(rt::msec(200));
  set.press(tv::Key::kBack);
  sched.run_for(rt::msec(300));
  set.press(tv::Key::kTeletext);  // dead engine ignores the command
  sched.run_for(rt::sec(1));
  show_status(set, sched.now(), "after crash recovery");

  std::printf("--- summary ------------------------------------------------------\n");
  std::printf("comparator errors : %zu\n", monitor->errors().size());
  std::printf("mode detections   : %zu\n", detections.all().size());
  std::printf("recoveries        : %d\n", recoveries);
  std::printf("frames total/drop : %llu / %llu\n",
              static_cast<unsigned long long>(set.stats().frames_total),
              static_cast<unsigned long long>(set.stats().frames_dropped));
  return (monitor->errors().empty() || detections.all().empty()) ? 1 : 0;
}
