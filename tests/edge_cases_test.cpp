// Edge-case and run-time-reconfiguration coverage across modules: the
// corners that the main suites don't reach.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "faults/injector.hpp"
#include "recovery/managers.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/batch.hpp"
#include "statemachine/machine.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace tv = trader::tv;
namespace core = trader::core;
namespace rec = trader::recovery;
namespace flt = trader::faults;

// ---------------------------------------------------------- runtime corners

TEST(EdgeScheduler, RunUntilOnEmptyQueueAdvancesTime) {
  rt::Scheduler sched;
  sched.run_until(5000);
  EXPECT_EQ(sched.now(), 5000);
  sched.run_until(100);  // going backwards is a no-op on now()
  EXPECT_EQ(sched.now(), 5000);
}

TEST(EdgeScheduler, NegativeDelayClampsToNow) {
  rt::Scheduler sched;
  sched.run_until(100);
  rt::SimTime fired = -1;
  sched.schedule_after(-50, [&] { fired = sched.now(); });
  sched.run_all();
  EXPECT_EQ(fired, 100);
}

TEST(EdgeBus, UnsubscribeDuringDeliveryIsSafe) {
  rt::EventBus bus;
  rt::Subscription sub;
  int calls = 0;
  sub = bus.subscribe("t", [&](const rt::Event&) {
    ++calls;
    bus.unsubscribe(sub);  // self-removal mid-delivery
  });
  rt::Event ev;
  ev.topic = "t";
  bus.publish(ev);
  bus.publish(ev);
  EXPECT_EQ(calls, 1);
}

TEST(EdgeChannel, ZeroLatencyDeliversViaScheduler) {
  rt::Scheduler sched;
  int delivered = 0;
  rt::ChannelConfig cfg;
  cfg.base_latency = 0;
  rt::LatencyChannel ch(sched, rt::Rng(1), cfg, [&](const rt::Event&) { ++delivered; });
  rt::Event ev;
  ch.send(ev);
  EXPECT_EQ(delivered, 0);  // still asynchronous
  sched.run_all();
  EXPECT_EQ(delivered, 1);
}

// ------------------------------------------------------- statemachine corners

TEST(EdgeMachine, EmptyMachineIsInert) {
  sm::StateMachineDef def("empty");
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_FALSE(m.started());
  EXPECT_FALSE(m.dispatch(sm::SmEvent::named("x"), 1));
  EXPECT_EQ(m.advance_time(1000), 0);
}

TEST(EdgeMachine, CompiledNextDeadlineBeforeStart) {
  sm::StateMachineDef def("d");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 100);
  sm::BatchExecutor batch(sm::ModelProgram::compile(def));
  const auto id = batch.add_instance();
  EXPECT_EQ(batch.next_deadline(id), -1);
  batch.start(id, 50);
  EXPECT_EQ(batch.next_deadline(id), 150);
}

TEST(EdgeMachine, TransitionFromCompositeExitsAllDescendants) {
  sm::StateMachineDef def("m");
  std::vector<std::string> exits;
  const auto top = def.add_state("Top");
  const auto mid = def.add_state("Mid", top);
  const auto leaf = def.add_state("Leaf", mid);
  const auto other = def.add_state("Other");
  (void)leaf;
  def.on_exit(leaf, [&](sm::ActionEnv&) { exits.push_back("leaf"); });
  def.on_exit(mid, [&](sm::ActionEnv&) { exits.push_back("mid"); });
  def.on_exit(top, [&](sm::ActionEnv&) { exits.push_back("top"); });
  def.add_transition(top, other, "go");
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("go"), 1);
  EXPECT_EQ(exits, (std::vector<std::string>{"leaf", "mid", "top"}));
  EXPECT_TRUE(m.in("Other"));
}

// --------------------------------------------------------------- TV corners

TEST(EdgeTv, VolumeAtRailsStillConsistent) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(1));
  tv::TvSystem set(sched, bus, injector);
  set.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(200));
  for (int i = 0; i < 30; ++i) set.press(tv::Key::kVolumeUp);
  EXPECT_EQ(set.control().volume(), 100);
  EXPECT_EQ(set.audio().volume(), 100);
  for (int i = 0; i < 30; ++i) set.press(tv::Key::kVolumeDown);
  EXPECT_EQ(set.sound_output(), 0);
  set.press(tv::Key::kVolumeUp);
  EXPECT_EQ(set.sound_output(), 5);
}

TEST(EdgeTv, DigitEntryAcrossScreenSwitchTimesOutInTeletext) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(1));
  tv::TvSystem set(sched, bus, injector);
  set.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(200));
  set.press(tv::Key::kDigit3);     // pending channel digit
  set.press(tv::Key::kTeletext);   // switch before timeout
  sched.run_for(rt::sec(2));       // timeout elapses inside teletext
  // Real control discards incomplete entries while in teletext.
  EXPECT_EQ(set.displayed_channel(), 1);
}

TEST(EdgeTv, MuteAtZeroVolumeKeepsSilence) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(1));
  tv::TvSystem set(sched, bus, injector);
  set.start();
  set.press(tv::Key::kPower);
  for (int i = 0; i < 10; ++i) set.press(tv::Key::kVolumeDown);
  EXPECT_EQ(set.sound_output(), 0);
  set.press(tv::Key::kMute);
  EXPECT_EQ(set.sound_output(), 0);
  set.press(tv::Key::kMute);
  EXPECT_EQ(set.sound_output(), 0);  // still zero volume underneath
}

TEST(EdgeTv, SleepTimerSurvivesScreenChanges) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(1));
  tv::TvSystem set(sched, bus, injector);
  set.start();
  set.press(tv::Key::kPower);
  set.press(tv::Key::kSleep);  // 15 min
  set.press(tv::Key::kTeletext);
  set.press(tv::Key::kBack);
  sched.run_for(rt::sec(15 * 60 + 1));
  EXPECT_FALSE(set.control().powered());
  EXPECT_EQ(set.screen_output(), "off");
}

// ---------------------------------------------- run-time reconfiguration

TEST(EdgeMonitor, ObservableConfigChangesTakeEffectLive) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(1));
  tv::TvSystem set(sched, bus, injector);
  core::ObservableConfig oc;
  oc.name = "sound_level";
  oc.max_consecutive = 3;
  auto monitor = core::MonitorBuilder(sched, bus)
                     .model(tv::build_tv_spec_model())
                     .comparison_period(rt::msec(20))
                     .startup_grace(rt::msec(100))
                     .observe(oc)
                     .build();
  set.start();
  monitor->start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));

  // Raise the threshold at run time: a one-step volume divergence is now
  // tolerated (adaptive monitoring — the §5 light/heavy flexibility).
  oc.threshold = 10.0;
  monitor->configuration().set_observable(oc);
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kVolumeUp);  // lost: deviation 5 <= threshold 10
  sched.run_for(rt::sec(1));
  EXPECT_TRUE(monitor->errors().empty());

  // Tighten it again: the persisting divergence is now reported.
  oc.threshold = 0.0;
  monitor->configuration().set_observable(oc);
  sched.run_for(rt::sec(1));
  EXPECT_FALSE(monitor->errors().empty());
}

// ------------------------------------------------------------ recovery corners

TEST(EdgeRecovery, FailureDuringRestartIsIdempotent) {
  rt::Scheduler sched;
  rec::CommunicationManager comm(sched);
  rec::RecoveryManager mgr(sched, comm, rec::RecoveryPolicy::kRestartUnit);
  rec::RecoverableUnit u("u", rt::msec(100));
  u.checkpoint();
  comm.register_unit(&u);
  mgr.notify_failure("u", sched.now());
  sched.run_for(rt::msec(50));
  // A second failure notification while the first restart is pending.
  mgr.notify_failure("u", sched.now());
  sched.run_for(rt::msec(200));
  EXPECT_TRUE(u.running());
  EXPECT_GE(u.restarts(), 1u);
}

TEST(EdgeRecovery, QuarantineFlushStopsIfUnitDiesAgain) {
  rt::Scheduler sched;
  rec::CommunicationManager comm(sched);
  rec::RecoverableUnit u("u", rt::msec(10));
  int processed = 0;
  u.set_handler([&](rec::RecoverableUnit& self, const rt::Event&) {
    ++processed;
    if (processed == 1) self.kill(0);  // dies while draining the queue
  });
  u.checkpoint();
  comm.register_unit(&u);
  u.kill(0);
  rt::Event ev;
  comm.send("u", ev);
  comm.send("u", ev);
  comm.send("u", ev);
  u.complete_restart(10);
  comm.flush("u");
  EXPECT_EQ(processed, 1);
  EXPECT_EQ(comm.pending("u"), 2u);  // remaining messages still safe
}
