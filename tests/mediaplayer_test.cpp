// Tests for the media-player SUO (§5, MPlayer case study): transport
// correctness, A/V-sync performance issues, and awareness integration.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "mediaplayer/player.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/checker.hpp"
#include "statemachine/machine.hpp"
#include "statemachine/test_script.hpp"

namespace mp = trader::mediaplayer;
namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;

namespace {

struct PlayerFixture {
  PlayerFixture() : injector(rt::Rng(9)), player(sched, bus, injector) { player.start(); }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  mp::MediaPlayer player;
};

}  // namespace

TEST(Player, StartsStopped) {
  PlayerFixture f;
  EXPECT_EQ(f.player.state(), mp::PlayerState::kStopped);
  f.sched.run_for(rt::sec(1));
  EXPECT_DOUBLE_EQ(f.player.position_seconds(), 0.0);
}

TEST(Player, PlayAdvancesClocksInSync) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(5));
  EXPECT_EQ(f.player.state(), mp::PlayerState::kPlaying);
  EXPECT_NEAR(f.player.position_seconds(), 5.0, 0.3);
  EXPECT_NEAR(f.player.av_offset_ms(), 0.0, 45.0);
  EXPECT_GT(f.player.frames_rendered(), 100u);
}

TEST(Player, PauseFreezesPosition) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.player.pause();
  const double pos = f.player.position_seconds();
  f.sched.run_for(rt::sec(3));
  EXPECT_EQ(f.player.state(), mp::PlayerState::kPaused);
  EXPECT_DOUBLE_EQ(f.player.position_seconds(), pos);
  f.player.play();
  f.sched.run_for(rt::sec(1));
  EXPECT_GT(f.player.position_seconds(), pos);
}

TEST(Player, StopResetsClocks) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.player.stop();
  EXPECT_EQ(f.player.state(), mp::PlayerState::kStopped);
  EXPECT_DOUBLE_EQ(f.player.position_seconds(), 0.0);
}

TEST(Player, SeekJumpsAndRebuffers) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.player.seek(120.0);
  EXPECT_EQ(f.player.state(), mp::PlayerState::kBuffering);
  f.sched.run_for(rt::sec(1));
  EXPECT_EQ(f.player.state(), mp::PlayerState::kPlaying);
  EXPECT_NEAR(f.player.position_seconds(), 120.5, 1.0);
}

TEST(Player, SeekWhileStoppedIgnored) {
  PlayerFixture f;
  f.player.seek(60.0);
  EXPECT_EQ(f.player.state(), mp::PlayerState::kStopped);
  EXPECT_DOUBLE_EQ(f.player.position_seconds(), 0.0);
}

TEST(Player, DemuxerStallCausesBuffering) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "demuxer", f.sched.now(),
                                     rt::sec(2), 1.0, {}});
  f.sched.run_for(rt::sec(1));
  EXPECT_EQ(f.player.state(), mp::PlayerState::kBuffering);
  f.sched.run_for(rt::sec(2));  // fault window over, pipeline refills
  EXPECT_EQ(f.player.state(), mp::PlayerState::kPlaying);
}

TEST(Player, SlowVideoDecoderDriftsAvSync) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  EXPECT_NEAR(f.player.av_offset_ms(), 0.0, 45.0);
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kTaskOverrun, "vdec", f.sched.now(), 0,
                                     1.0, {}});
  f.sched.run_for(rt::sec(3));
  // Audio runs ahead of the starving video: positive drift beyond the
  // lip-sync tolerance.
  EXPECT_GT(f.player.av_offset_ms(), 100.0);
}

TEST(Player, CrashedAudioDecoderDriftsNegative) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "adec", f.sched.now(), 0, 1.0, {}});
  f.sched.run_for(rt::sec(3));
  EXPECT_LT(f.player.av_offset_ms(), -100.0);
}

TEST(Player, AvOffsetProbeRangeViolationsFireUnderDrift) {
  PlayerFixture f;
  f.player.play();
  f.sched.run_for(rt::sec(2));
  det::DetectionLog log;
  det::RangeChecker checker(f.player.probes());
  checker.poll(log);  // drain boot-time noise (should be none)
  const auto baseline = log.all().size();
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kTaskOverrun, "vdec", f.sched.now(), 0,
                                     1.0, {}});
  f.sched.run_for(rt::sec(3));
  checker.poll(log);
  EXPECT_GT(log.all().size(), baseline);
}

// ----------------------------------------------------------------- Spec model

TEST(PlayerSpec, PassesStaticChecks) {
  auto def = mp::build_player_spec_model();
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  for (const auto& issue : report.issues) {
    ADD_FAILURE() << sm::to_string(issue.kind) << " " << issue.subject << ": " << issue.message;
  }
}

TEST(PlayerSpec, TransportScript) {
  auto def = mp::build_player_spec_model();
  sm::TestScript script("transport");
  script.expect_state("Stopped")
      .inject("play")
      .expect_state("Playing")
      .inject("pause")
      .expect_state("Paused")
      .inject("play")
      .expect_state("Playing")
      .inject("stop")
      .expect_state("Stopped");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(PlayerSpec, SeekSuppressesComparisonThenResumes) {
  auto def = mp::build_player_spec_model();
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("play"), 0);
  EXPECT_FALSE(m.vars().get_bool("nocompare:state"));
  m.dispatch(sm::SmEvent::named("seek"), 10);
  EXPECT_TRUE(m.in("Seeking"));
  EXPECT_TRUE(m.vars().get_bool("nocompare:state"));
  m.advance_time(10 + rt::msec(500));
  EXPECT_TRUE(m.in("Playing"));
  EXPECT_FALSE(m.vars().get_bool("nocompare:state"));
}

// --------------------------------------------------------- Awareness monitor

namespace {

core::MonitorBuilder player_monitor() {
  core::MonitorBuilder builder;
  builder.model(mp::build_player_spec_model())
      .input_topic("mp.input")
      .output_topic("mp.output")
      .input_mapper([](const rt::Event& ev) -> std::optional<sm::SmEvent> {
        const std::string cmd = ev.str_field("cmd");
        if (cmd.empty()) return std::nullopt;
        return sm::SmEvent::named(cmd);
      })
      .threshold("state", 0.0, /*max_consecutive=*/4)
      .comparison_period(rt::msec(25))
      .startup_grace(rt::msec(50))
      .channel_latency(rt::usec(300));
  return builder;
}

}  // namespace

TEST(PlayerMonitor, CleanSessionHasNoErrors) {
  PlayerFixture f;
  auto monitor = player_monitor().build(f.sched, f.bus);
  monitor->start();
  f.player.play();
  f.sched.run_for(rt::sec(2));
  f.player.pause();
  f.sched.run_for(rt::sec(1));
  f.player.play();
  f.sched.run_for(rt::sec(1));
  f.player.seek(100.0);
  f.sched.run_for(rt::sec(2));
  f.player.stop();
  f.sched.run_for(rt::sec(1));
  EXPECT_TRUE(monitor->errors().empty())
      << (monitor->errors().empty() ? "" : monitor->errors()[0].describe());
}

TEST(PlayerMonitor, DetectsUnexpectedBufferingAsStateError) {
  PlayerFixture f;
  auto monitor = player_monitor().build(f.sched, f.bus);
  monitor->start();
  f.player.play();
  f.sched.run_for(rt::sec(2));
  // Demuxer wedges with no user action: the spec model still expects
  // "playing" while the player reports "buffering" — a correctness error.
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "demuxer", f.sched.now(),
                                     0, 1.0, {}});
  f.sched.run_for(rt::sec(2));
  ASSERT_FALSE(monitor->errors().empty());
  EXPECT_EQ(monitor->errors()[0].observable, "state");
}

TEST(Player, StopsAtEndOfClip) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(9));
  mp::PlayerConfig cfg;
  cfg.clip_seconds = 3.0;  // short clip
  mp::MediaPlayer player(sched, bus, injector, cfg);
  player.start();
  player.play();
  sched.run_for(rt::sec(5));
  EXPECT_EQ(player.state(), mp::PlayerState::kStopped);
  EXPECT_DOUBLE_EQ(player.position_seconds(), 0.0);  // rewound
}

TEST(Player, SeekToEndStops) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(9));
  mp::PlayerConfig cfg;
  cfg.clip_seconds = 100.0;
  mp::MediaPlayer player(sched, bus, injector, cfg);
  player.start();
  player.play();
  sched.run_for(rt::sec(1));
  player.seek(100.0);
  sched.run_for(rt::sec(1));
  EXPECT_EQ(player.state(), mp::PlayerState::kStopped);
}

TEST(PlayerMonitor, EndOfClipProducesNoErrors) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(9));
  mp::PlayerConfig cfg;
  cfg.clip_seconds = 3.0;
  mp::MediaPlayer player(sched, bus, injector, cfg);
  auto monitor = player_monitor().build(sched, bus);
  player.start();
  monitor->start();
  player.play();
  sched.run_for(rt::sec(6));  // plays out and stops
  EXPECT_EQ(player.state(), mp::PlayerState::kStopped);
  EXPECT_TRUE(monitor->errors().empty())
      << (monitor->errors().empty() ? "" : monitor->errors()[0].describe());
}
