// Long-soak system test: the whole stack (TV + monitor + mode checker +
// timeliness monitor + recovery) over a randomized session with a
// scheduled fault campaign. Asserts the Fig. 1 promise end to end:
// no false alarms while healthy, every injected fault class caught, and
// health restored after recovery.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "detection/detectors.hpp"
#include "detection/response_time.hpp"
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

struct SoakRig {
  explicit SoakRig(std::uint64_t seed) : injector(rt::Rng(seed)), set(sched, bus, injector) {
    core::MonitorBuilder builder(sched, bus);
    builder.model(tv::build_tv_spec_model())
        .comparison_period(rt::msec(20))
        .startup_grace(rt::msec(100));
    for (const char* name : {"sound_level", "screen_state", "channel", "powered", "source"}) {
      builder.threshold(name, 0.0, /*max_consecutive=*/3);
    }
    monitor = builder.build();
    for (auto& rule : det::tv_mode_rules()) modes.add_rule(rule);
    sched.schedule_every(rt::msec(40), [this] {
      modes.check(set.mode_snapshot(), sched.now(), detections);
    });

    // Recovery: resync the component named by the observable.
    monitor->set_recovery_handler([this](const core::ErrorReport& err) {
      ++recoveries;
      if (err.observable == "sound_level") set.restart_component("audio");
      if (err.observable == "screen_state") set.restart_component("teletext");
      if (err.observable == "source") set.restart_component("avswitch");
    });

    set.start();
    monitor->start();
    set.press(tv::Key::kPower);
    sched.run_for(rt::msec(300));
  }

  // Press keys randomly but *meaningfully*: waits long enough between
  // presses for episodes to settle.
  void random_usage(rt::Rng& rng, int presses) {
    const std::vector<tv::Key> keys = {
        tv::Key::kVolumeUp,  tv::Key::kVolumeDown, tv::Key::kMute,      tv::Key::kChannelUp,
        tv::Key::kChannelDown, tv::Key::kTeletext, tv::Key::kDualScreen, tv::Key::kMenu,
        tv::Key::kBack,      tv::Key::kSource,     tv::Key::kDigit2,    tv::Key::kDigit4,
    };
    for (int i = 0; i < presses; ++i) {
      set.press(keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(keys.size() - 1)))]);
      sched.run_for(rt::msec(1700));
    }
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  tv::TvSystem set;
  std::unique_ptr<core::AwarenessMonitor> monitor;
  det::ModeConsistencyChecker modes;
  det::DetectionLog detections;
  int recoveries = 0;
};

}  // namespace

class SystemSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemSoak, CleanPhaseQuietFaultsCaughtHealthRestored) {
  SoakRig rig(GetParam());
  rt::Rng rng(GetParam() ^ 0xBEEF);

  // --- Phase 1: healthy usage, nothing may fire --------------------------
  rig.random_usage(rng, 25);
  EXPECT_TRUE(rig.monitor->errors().empty())
      << rig.monitor->errors()[0].describe();
  EXPECT_TRUE(rig.detections.all().empty());

  // --- Phase 2: fault campaign -------------------------------------------
  // One transient fault of each major class, separated in time.
  const rt::SimTime t0 = rig.sched.now();
  rig.injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", t0,
                                       rt::msec(100), 1.0, {}});
  rig.set.press(tv::Key::kVolumeUp);
  rig.sched.run_for(rt::sec(3));

  // Bring the set into teletext viewing (the desync rule is only armed
  // while the engine serves pages): leave any menu first (the menu
  // swallows the source key!), then cycle back to antenna.
  rig.set.press(tv::Key::kBack);
  rig.sched.run_for(rt::msec(300));
  for (int i = 0; i < 2 && rig.set.av_switch().source() != tv::AvSource::kAntenna; ++i) {
    rig.set.press(tv::Key::kSource);
    rig.sched.run_for(rt::msec(300));
  }
  ASSERT_EQ(rig.set.av_switch().source(), tv::AvSource::kAntenna);
  if (rig.set.screen_output() != "teletext") {
    rig.set.press(tv::Key::kTeletext);
    rig.sched.run_for(rt::msec(300));
  }
  ASSERT_EQ(rig.set.screen_output(), "teletext");

  const rt::SimTime t1 = rig.sched.now();
  rig.injector.schedule(flt::FaultSpec{flt::FaultKind::kModeDesync, "teletext", t1,
                                       rt::msec(100), 1.0, {}});
  rig.sched.run_for(rt::sec(3));

  const std::size_t errors_after_campaign = rig.monitor->errors().size();
  EXPECT_GE(errors_after_campaign, 1u);                          // comparator fired
  EXPECT_GE(rig.detections.count("mode"), 1u);                   // mode checker fired
  EXPECT_GE(rig.recoveries, 1);

  // --- Phase 3: recovered — back to quiet under continued usage -----------
  // Repair any residual desync the campaign left behind.
  rig.set.restart_component("teletext");
  rig.set.restart_component("audio");
  rig.sched.run_for(rt::sec(1));
  const std::size_t errors_before = rig.monitor->errors().size();
  const std::size_t detections_before = rig.detections.all().size();
  rig.random_usage(rng, 20);
  EXPECT_EQ(rig.monitor->errors().size(), errors_before)
      << rig.monitor->errors().back().describe();
  EXPECT_EQ(rig.detections.all().size(), detections_before);

  // The set is fully functional at the end.
  EXPECT_EQ(rig.set.sound_output(), rig.set.control().expected_sound_level());
  EXPECT_TRUE(rig.set.teletext_content_ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemSoak, ::testing::Values(101, 202, 303, 404, 505));

// Sharded-fleet soak: many monitors spread over worker threads under
// sustained traffic and induced faults. Primarily a ThreadSanitizer
// target (cmake -B build-tsan -S . -DTRADER_SANITIZE=thread) — it keeps
// the mailbox, barrier and recovery-handler paths hot — but the
// determinism assertion makes it a functional test everywhere.
TEST(SystemSoak, ShardedFleetSoakIsRaceFreeAndDeterministic) {
  auto session = [](std::size_t shards) {
    core::ShardedFleetConfig cfg;
    cfg.shards = shards;
    cfg.epoch = rt::msec(5);
    cfg.seed = 0x50AC;
    core::ShardedFleet fleet(cfg);
    const int kMonitors = 12;
    for (int m = 0; m < kMonitors; ++m) {
      core::MonitorBuilder builder;
      builder.model(tv::build_tv_spec_model())
          .input_topic("tv.input." + std::to_string(m))
          .output_topic("tv.output." + std::to_string(m))
          .comparison_period(rt::msec(10))
          .startup_grace(rt::msec(20))
          .threshold("sound_level", 0.0, /*max_consecutive=*/2);
      fleet.add_monitor("aspect" + std::to_string(m), std::move(builder));
    }
    int handler_calls = 0;
    fleet.set_recovery_handler([&](const core::AspectError&) { ++handler_calls; });
    fleet.start();

    std::vector<std::int64_t> volume(12, 30);
    for (int step = 0; step < 40; ++step) {
      for (int m = 0; m < kMonitors; ++m) {
        rt::Event in;
        in.topic = "tv.input." + std::to_string(m);
        in.name = "key";
        in.fields["key"] = std::string("power");
        // Every monitor's SUO powers on at step 0; from then on the
        // observed sound level tracks the model except for monitors
        // where a command is "lost" at step 20.
        if (step == 0) {
          fleet.publish(in);
        }
        rt::Event out;
        out.topic = "tv.output." + std::to_string(m);
        out.name = "sound_level";
        if (step >= 1) {
          if (!(m % 3 == 0 && step == 20)) {
            // tracks the model's belief (constant 30 after power-on)
          } else {
            volume[static_cast<std::size_t>(m)] = 0;  // fault: muted SUO
          }
          out.fields["value"] = volume[static_cast<std::size_t>(m)];
          fleet.publish(out);
        }
      }
      fleet.run_for(rt::msec(15));
    }
    fleet.run_for(rt::msec(200));
    fleet.stop();
    std::string fingerprint;
    for (const auto& e : fleet.errors()) {
      fingerprint += e.aspect + "@" + std::to_string(e.report.detected_at) + ";";
    }
    EXPECT_EQ(static_cast<std::size_t>(handler_calls), fleet.errors().size());
    return fingerprint;
  };
  const auto base = session(1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(session(3), base);
  EXPECT_EQ(session(8), base);
}

TEST(SystemSoak, TimelinessMonitorStaysQuietAcrossLongCleanSession) {
  SoakRig rig(77);
  det::DetectionLog rt_log;
  det::ResponseTimeMonitor response(rig.sched, rig.bus, rt_log);
  for (auto& rule : det::tv_response_rules(rt::msec(200))) response.add_rule(rule);
  response.start();
  rt::Rng rng(0x1CEB00DA);
  // Volume keys away from the rails, power cycles, teletext toggles.
  for (int i = 0; i < 30; ++i) {
    const int pick = static_cast<int>(rng.uniform_int(0, 3));
    if (pick == 0) rig.set.press(tv::Key::kVolumeUp);
    if (pick == 1) rig.set.press(tv::Key::kVolumeDown);
    if (pick == 2) rig.set.press(tv::Key::kTeletext);
    if (pick == 3) rig.set.press(tv::Key::kMute);
    rig.sched.run_for(rt::msec(700));
  }
  EXPECT_EQ(rt_log.count("timeliness"), 0u);
  EXPECT_GT(response.response_times().count(), 10u);
}
