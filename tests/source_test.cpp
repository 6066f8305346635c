// Tests for the AV source feature (§2: external inputs, recording
// devices, USB) — control semantics, pipeline behaviour, spec-model
// agreement, and awareness of source faults.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/test_script.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace tv = trader::tv;
namespace rt = trader::runtime;
namespace flt = trader::faults;
namespace core = trader::core;
namespace det = trader::detection;
namespace sm = trader::statemachine;

TEST(AvSource, CycleAndNames) {
  EXPECT_EQ(tv::next_source(tv::AvSource::kAntenna), tv::AvSource::kHdmi);
  EXPECT_EQ(tv::next_source(tv::AvSource::kHdmi), tv::AvSource::kUsb);
  EXPECT_EQ(tv::next_source(tv::AvSource::kUsb), tv::AvSource::kAntenna);
  EXPECT_STREQ(tv::to_string(tv::AvSource::kHdmi), "hdmi");
  EXPECT_GT(tv::source_quality(tv::AvSource::kHdmi), tv::source_quality(tv::AvSource::kUsb));
}

namespace {

struct SourceFixture {
  SourceFixture() : injector(rt::Rng(5)), set(sched, bus, injector) {
    set.start();
    set.press(tv::Key::kPower);
    sched.run_for(rt::msec(200));
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  tv::TvSystem set;
};

}  // namespace

TEST(AvSource, SourceKeyCyclesThroughInputs) {
  SourceFixture f;
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kAntenna);
  f.set.press(tv::Key::kSource);
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kHdmi);
  EXPECT_EQ(f.set.control().source(), tv::AvSource::kHdmi);
  f.set.press(tv::Key::kSource);
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kUsb);
  f.set.press(tv::Key::kSource);
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kAntenna);
}

TEST(AvSource, ExternalFeedDeliversItsOwnQuality) {
  SourceFixture f;
  f.set.press(tv::Key::kSource);  // hdmi
  f.sched.run_for(rt::sec(2));
  EXPECT_NEAR(f.set.recent_quality(), 0.98, 0.05);
}

TEST(AvSource, ZappingInertOnExternalInputs) {
  SourceFixture f;
  f.set.press(tv::Key::kSource);
  f.set.press(tv::Key::kChannelUp);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.displayed_channel(), 1);  // unchanged
  f.set.press(tv::Key::kDigit2);
  f.set.press(tv::Key::kDigit3);
  f.sched.run_for(rt::sec(2));
  EXPECT_EQ(f.set.displayed_channel(), 1);  // digits swallowed too
}

TEST(AvSource, TeletextAndDualUnavailableOnExternalInputs) {
  SourceFixture f;
  f.set.press(tv::Key::kSource);
  f.set.press(tv::Key::kTeletext);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "video");
  f.set.press(tv::Key::kDualScreen);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "video");
}

TEST(AvSource, SourceKeyDismissesTeletext) {
  SourceFixture f;
  f.set.press(tv::Key::kTeletext);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "teletext");
  f.set.press(tv::Key::kSource);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "video");
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kHdmi);
  EXPECT_EQ(f.set.teletext().mode(), tv::TeletextEngine::Mode::kOff);
}

TEST(AvSource, SourceKeyDismissesDualScreen) {
  SourceFixture f;
  f.set.press(tv::Key::kDualScreen);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "dual");
  f.set.press(tv::Key::kSource);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.screen_output(), "video");
}

TEST(AvSource, MenuSwallowsSourceKey) {
  SourceFixture f;
  f.set.press(tv::Key::kMenu);
  f.set.press(tv::Key::kSource);
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kAntenna);
  EXPECT_EQ(f.set.screen_output(), "menu");
}

TEST(AvSource, PowerCycleRestoresSource) {
  SourceFixture f;
  f.set.press(tv::Key::kSource);  // hdmi
  f.set.press(tv::Key::kPower);   // off
  f.sched.run_for(rt::msec(100));
  f.set.press(tv::Key::kPower);   // on again
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kHdmi);
}

TEST(AvSource, SourceOutputPublishedOnChange) {
  SourceFixture f;
  std::vector<std::string> sources;
  f.bus.subscribe("tv.output", [&](const rt::Event& ev) {
    if (ev.name == "source") sources.push_back(ev.str_field("value"));
  });
  f.set.press(tv::Key::kSource);
  f.set.press(tv::Key::kSource);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], "hdmi");
  EXPECT_EQ(sources[1], "usb");
}

TEST(AvSource, LostSelectCommandDetectedByModeChecker) {
  SourceFixture f;
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.avswitch",
                                     f.sched.now(), 0, 1.0, {}});
  f.set.press(tv::Key::kSource);  // select lost: belief hdmi, switch antenna
  EXPECT_EQ(f.set.control().source(), tv::AvSource::kHdmi);
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kAntenna);

  det::ModeConsistencyChecker checker;
  for (auto& rule : det::tv_mode_rules()) checker.add_rule(rule);
  det::DetectionLog log;
  for (int i = 0; i < 5; ++i) {
    f.sched.run_for(rt::msec(20));
    checker.check(f.set.mode_snapshot(), f.sched.now(), log);
  }
  EXPECT_GE(log.first("mode", "control-avswitch-source"), 0);
}

TEST(AvSource, LostSelectCommandDetectedByAwarenessMonitor) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(5));
  tv::TvSystem set(sched, bus, injector);

  auto monitor = core::MonitorBuilder(sched, bus)
                     .model(tv::build_tv_spec_model())
                     .comparison_period(rt::msec(20))
                     .startup_grace(rt::msec(100))
                     .threshold("source", 0.0, /*max_consecutive=*/3)
                     .build();
  set.start();
  monitor->start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));
  set.press(tv::Key::kSource);
  sched.run_for(rt::msec(300));
  EXPECT_TRUE(monitor->errors().empty());  // healthy switch agrees

  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.avswitch", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kSource);
  sched.run_for(rt::msec(500));
  ASSERT_FALSE(monitor->errors().empty());
  EXPECT_EQ(monitor->errors()[0].observable, "source");
}

TEST(AvSource, SpecModelScripts) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("source");
  script.inject("power")
      .inject("source")
      .expect_var("source", std::string("hdmi"))
      .expect_output("source")
      .inject("teletext")            // unavailable on hdmi
      .expect_state("On.Video")
      .inject("channel_up")          // inert on hdmi
      .expect_var("channel", std::int64_t{1})
      .inject("source")
      .inject("source")              // back to antenna
      .expect_var("source", std::string("antenna"))
      .inject("teletext")
      .expect_state("On.Teletext")
      .inject("source")              // dismisses teletext
      .expect_state("On.Video")
      .expect_var("source", std::string("hdmi"));
  const auto result = script.run(def);
  for (const auto& fail : result.failures) {
    ADD_FAILURE() << "step " << fail.step_index << ": " << fail.message;
  }
}

TEST(AvSource, CrashedSwitchRecoversByRestart) {
  SourceFixture f;
  f.set.press(tv::Key::kSource);  // hdmi (belief + switch)
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "avswitch", f.sched.now(),
                                     rt::msec(50), 1.0, {}});
  f.sched.run_for(rt::msec(100));
  ASSERT_TRUE(f.set.crashed().count("avswitch"));
  f.set.press(tv::Key::kSource);  // usb belief; dead switch stays hdmi
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kHdmi);
  f.set.restart_component("avswitch");
  EXPECT_EQ(f.set.av_switch().source(), tv::AvSource::kUsb);  // replayed belief
}
