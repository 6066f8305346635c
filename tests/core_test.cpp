// Tests for the awareness framework (Fig. 2): observers, model executor,
// comparator tolerance machinery, controller, and the full monitor
// against a scripted SUO and against the real TV simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "faults/injector.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace core = trader::core;
namespace sm = trader::statemachine;
namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace flt = trader::faults;

namespace {

// A trivial SUO: publishes input events and echo outputs.
struct EchoSuo {
  EchoSuo(rt::Scheduler& sched, rt::EventBus& bus) : sched_(sched), bus_(bus) {}

  void input(const std::string& key) {
    rt::Event ev;
    ev.topic = "suo.in";
    ev.name = "key";
    ev.fields["key"] = key;
    ev.timestamp = sched_.now();
    bus_.publish(ev);
  }

  void output(const std::string& name, rt::Value v) {
    rt::Event ev;
    ev.topic = "suo.out";
    ev.name = name;
    ev.fields["value"] = std::move(v);
    ev.timestamp = sched_.now();
    bus_.publish(ev);
  }

  rt::Scheduler& sched_;
  rt::EventBus& bus_;
};

// Spec model: counter increments on "inc"; emits expected count.
sm::StateMachineDef counter_model() {
  sm::StateMachineDef def("counter");
  const auto s = def.add_state("S");
  def.add_internal(s, "inc", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
    env.emit("count", {{"value", env.vars.get_int("n")}});
  });
  def.add_internal(s, "hush", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_bool("nocompare:count", true);
  });
  def.add_internal(s, "talk", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_bool("nocompare:count", false);
  });
  return def;
}

core::MonitorBuilder counter_builder(int max_consecutive = 1, double threshold = 0.0) {
  core::MonitorBuilder builder;
  builder.model(counter_model())
      .input_topic("suo.in")
      .output_topic("suo.out")
      .threshold("count", threshold, max_consecutive)
      .comparison_period(rt::msec(10))
      .startup_grace(rt::msec(5))
      .channel_latency(rt::usec(100));
  return builder;
}

}  // namespace

// ------------------------------------------------------------- Configuration

TEST(Configuration, LookupAndOverride) {
  core::AwarenessConfig cfg;
  cfg.observables.push_back(core::ObservableConfig{"a", 1.0, 2, true, true});
  core::Configuration config(cfg);
  ASSERT_NE(config.lookup("a"), nullptr);
  EXPECT_EQ(config.lookup("a")->max_consecutive, 2);
  EXPECT_EQ(config.lookup("b"), nullptr);
  config.set_observable(core::ObservableConfig{"a", 5.0, 3, true, true});
  EXPECT_EQ(config.lookup("a")->max_consecutive, 3);
  config.set_observable(core::ObservableConfig{"b", 0.0, 1, true, true});
  EXPECT_EQ(config.observable_names().size(), 2u);
}

TEST(ErrorReport, DescribeMentionsEverything) {
  core::ErrorReport r{"obs", rt::Value{std::int64_t{3}}, rt::Value{std::int64_t{5}},
                      2.0,   4,                          100,
                      50};
  const auto d = r.describe();
  EXPECT_NE(d.find("obs"), std::string::npos);
  EXPECT_NE(d.find("3"), std::string::npos);
  EXPECT_NE(d.find("5"), std::string::npos);
}

// ------------------------------------------------------------------ Observers

TEST(Observers, DefaultInputMapperUsesKeyField) {
  rt::Event ev;
  ev.name = "key";
  ev.fields["key"] = std::string("volume_up");
  const auto sm_ev = core::default_input_mapper(ev);
  ASSERT_TRUE(sm_ev.has_value());
  EXPECT_EQ(sm_ev->name, "volume_up");
}

TEST(Observers, DefaultInputMapperFallsBackToEventName) {
  rt::Event ev;
  ev.name = "play";
  const auto sm_ev = core::default_input_mapper(ev);
  ASSERT_TRUE(sm_ev.has_value());
  EXPECT_EQ(sm_ev->name, "play");
}

TEST(Observers, DefaultOutputMapperNeedsValueField) {
  rt::Event ev;
  ev.name = "volume";
  EXPECT_FALSE(core::default_output_mapper(ev).has_value());
  ev.fields["value"] = std::int64_t{5};
  const auto mapped = core::default_output_mapper(ev);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->first, "volume");
}

TEST(Observers, InputObserverDeliversThroughLatency) {
  rt::Scheduler sched;
  rt::EventBus bus;
  std::vector<std::pair<std::string, rt::SimTime>> received;
  rt::ChannelConfig ch;
  ch.base_latency = rt::usec(500);
  core::InputObserver obs(sched, bus, "suo.in", ch, nullptr,
                          [&](const sm::SmEvent& ev, rt::SimTime now) {
                            received.emplace_back(ev.name, now);
                          });
  obs.start(0);
  EchoSuo suo(sched, bus);
  suo.input("go");
  sched.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, "go");
  EXPECT_EQ(received[0].second, 500);
  EXPECT_EQ(obs.observed_events(), 1u);
  obs.stop();
  suo.input("go");
  sched.run_all();
  EXPECT_EQ(received.size(), 1u);
}

TEST(Observers, OutputObserverKeepsLatestAndNotifies) {
  rt::Scheduler sched;
  rt::EventBus bus;
  rt::ChannelConfig ch;
  core::ObservableTable table;
  core::OutputObserver obs(sched, bus, {"suo.out"}, ch, nullptr, table);
  int fresh = 0;
  obs.on_fresh([&](core::ObservableId, rt::SimTime) { ++fresh; });
  obs.start(0);
  EchoSuo suo(sched, bus);
  suo.output("volume", std::int64_t{10});
  suo.output("volume", std::int64_t{20});
  sched.run_all();
  EXPECT_EQ(fresh, 2);
  const auto seen = obs.observed("volume");
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(seen->value), 20);
  EXPECT_EQ(obs.observed("other"), nullptr);
}

// --------------------------------------------------------------- ModelExecutor

TEST(ModelExecutor, MaintainsExpectationTable) {
  auto def = counter_model();
  core::ObservableTable table;
  core::ModelExecutor exec(std::make_unique<core::ModelInstance>(core::compile_model(def)),
                           table);
  exec.start(0);
  EXPECT_EQ(exec.expected("count"), nullptr);
  exec.on_input(sm::SmEvent::named("inc"), 10);
  const auto* e = exec.expected("count");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(e->value), 1);
  EXPECT_EQ(e->at, 10);
  exec.on_input(sm::SmEvent::named("inc"), 20);
  EXPECT_EQ(std::get<std::int64_t>(exec.expected("count")->value), 2);
  EXPECT_EQ(exec.inputs_processed(), 2u);
}

TEST(ModelExecutor, ComparisonEnableFollowsModelVars) {
  auto def = counter_model();
  core::ObservableTable table;
  core::ModelExecutor exec(std::make_unique<core::ModelInstance>(core::compile_model(def)),
                           table);
  exec.start(0);
  EXPECT_TRUE(exec.comparison_enabled("count"));
  exec.on_input(sm::SmEvent::named("hush"), 5);
  EXPECT_FALSE(exec.comparison_enabled("count"));
  exec.on_input(sm::SmEvent::named("talk"), 6);
  EXPECT_TRUE(exec.comparison_enabled("count"));
}

// Standalone instances of one shared program each get a private batch:
// stepping one leaves the other's expectation table alone.
TEST(ModelExecutor, StandaloneInstancesOfOneProgramAreIndependent) {
  const auto program = core::compile_model(counter_model());
  core::ObservableTable table_a;
  core::ObservableTable table_b;
  core::ModelExecutor a(std::make_unique<core::ModelInstance>(program), table_a);
  core::ModelExecutor b(std::make_unique<core::ModelInstance>(program), table_b);
  a.start(0);
  b.start(0);
  a.on_input(sm::SmEvent::named("inc"), 1);
  a.on_input(sm::SmEvent::named("inc"), 2);
  b.on_input(sm::SmEvent::named("inc"), 3);
  EXPECT_EQ(std::get<std::int64_t>(a.expected("count")->value), 2);
  EXPECT_EQ(std::get<std::int64_t>(b.expected("count")->value), 1);
}

// -------------------------------------------------- Monitor with a scripted SUO

namespace {

struct MonitorFixture {
  explicit MonitorFixture(core::MonitorBuilder builder)
      : suo(sched, bus), monitor(builder.build(sched, bus)) {
    monitor->start();
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  EchoSuo suo;
  std::unique_ptr<core::AwarenessMonitor> monitor;
};

}  // namespace

TEST(Monitor, NoErrorsWhenSystemMatchesModel) {
  MonitorFixture f(counter_builder());
  for (int i = 1; i <= 5; ++i) {
    f.suo.input("inc");
    f.suo.output("count", std::int64_t{i});
    f.sched.run_for(rt::msec(50));
  }
  EXPECT_TRUE(f.monitor->errors().empty());
  EXPECT_GT(f.monitor->stats().comparisons, 0u);
}

TEST(Monitor, DetectsPersistentDeviation) {
  MonitorFixture f(counter_builder(/*max_consecutive=*/3));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{1});
  f.sched.run_for(rt::msec(50));
  EXPECT_TRUE(f.monitor->errors().empty());
  // SUO drops the second increment: model expects 2, system says 1.
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{1});
  f.sched.run_for(rt::msec(200));
  ASSERT_EQ(f.monitor->errors().size(), 1u);  // reported once per episode
  const auto& err = f.monitor->errors()[0];
  EXPECT_EQ(err.observable, "count");
  EXPECT_EQ(std::get<std::int64_t>(err.expected), 2);
  EXPECT_EQ(std::get<std::int64_t>(err.observed), 1);
  EXPECT_GE(err.consecutive, 3);
}

TEST(Monitor, ThresholdTolerance) {
  MonitorFixture f(counter_builder(/*max_consecutive=*/1, /*threshold=*/1.0));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{2});  // off by one, within threshold
  f.sched.run_for(rt::msec(100));
  EXPECT_TRUE(f.monitor->errors().empty());
  f.suo.input("inc");                       // expected 2
  f.suo.output("count", std::int64_t{4});   // off by two, beyond threshold
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.monitor->errors().size(), 1u);
}

TEST(Monitor, ConsecutiveLimitSuppressesTransients) {
  MonitorFixture f(counter_builder(/*max_consecutive=*/5));
  // Single transient mismatch, then corrected: with limit 5 the episode
  // ends (event-based comparison agrees again) before an error fires.
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{0});  // transiently stale
  f.sched.run_for(rt::msec(20));
  f.suo.output("count", std::int64_t{1});  // caught up
  f.sched.run_for(rt::msec(200));
  EXPECT_TRUE(f.monitor->errors().empty());
  EXPECT_GT(f.monitor->stats().deviations, 0u);
}

TEST(Monitor, StartupGraceSuppressesEarlyComparisons) {
  auto builder = counter_builder();
  builder.startup_grace(rt::msec(500));
  MonitorFixture f(std::move(builder));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{999});  // wild mismatch during grace
  f.sched.run_for(rt::msec(400));
  EXPECT_TRUE(f.monitor->errors().empty());
  f.sched.run_for(rt::msec(400));  // grace over; mismatch persists
  EXPECT_FALSE(f.monitor->errors().empty());
}

TEST(Monitor, EnableCompareWindowSuppresses) {
  MonitorFixture f(counter_builder());
  f.suo.input("hush");  // model disables comparison of "count"
  f.sched.run_for(rt::msec(20));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{42});
  f.sched.run_for(rt::msec(200));
  EXPECT_TRUE(f.monitor->errors().empty());
  EXPECT_GT(f.monitor->stats().suppressed, 0u);
  f.suo.input("talk");
  f.sched.run_for(rt::msec(200));
  EXPECT_FALSE(f.monitor->errors().empty());
}

// The link gate is a Comparator input: while it reads false every
// comparison is suppressed and nothing is reported; once it reads true
// the same deviation reports exactly once.
TEST(Monitor, LinkGateQuiescesComparisonWhileDown) {
  auto gate = std::make_shared<std::atomic<bool>>(false);
  auto builder = counter_builder();
  builder.link_gate(gate);
  MonitorFixture f(std::move(builder));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{42});  // model expects 1
  f.sched.run_for(rt::msec(200));
  EXPECT_TRUE(f.monitor->errors().empty());
  EXPECT_GT(f.monitor->stats().suppressed, 0u);
  EXPECT_EQ(f.monitor->stats().comparisons, 0u);
  gate->store(true);
  f.sched.run_for(rt::msec(200));
  ASSERT_EQ(f.monitor->errors().size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(f.monitor->errors()[0].observed), 42);
}

TEST(Monitor, RecoveryHandlerInvoked) {
  MonitorFixture f(counter_builder());
  int recoveries = 0;
  f.monitor->set_recovery_handler([&](const core::ErrorReport&) { ++recoveries; });
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{9});
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(recoveries, 1);
}

TEST(Monitor, ErrorsLoggedToTrace) {
  MonitorFixture f(counter_builder());
  rt::TraceLog trace;
  f.monitor->set_trace(&trace);
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{9});
  f.sched.run_for(rt::msec(100));
  EXPECT_GE(trace.count_at_least(rt::TraceLevel::kError), 1u);
}

TEST(Monitor, TimeBasedOnlyComparisonStillDetects) {
  auto builder = counter_builder(3);
  core::ObservableConfig oc;
  oc.name = "count";
  oc.max_consecutive = 3;
  oc.event_based = false;
  builder.observe(oc);  // replaces the entry counter_builder() added
  MonitorFixture f(std::move(builder));
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{7});
  f.sched.run_for(rt::msec(300));
  EXPECT_EQ(f.monitor->errors().size(), 1u);
}

TEST(Monitor, StopFreezesObservation) {
  MonitorFixture f(counter_builder());
  f.monitor->stop();
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{9});
  f.sched.run_for(rt::msec(100));
  EXPECT_TRUE(f.monitor->errors().empty());
}

TEST(Monitor, EpisodeResetAllowsNewReport) {
  MonitorFixture f(counter_builder());
  f.suo.input("inc");
  f.suo.output("count", std::int64_t{9});  // wrong -> error #1
  f.sched.run_for(rt::msec(100));
  f.suo.output("count", std::int64_t{1});  // agrees again
  f.sched.run_for(rt::msec(100));
  f.suo.output("count", std::int64_t{9});  // wrong again -> error #2
  f.sched.run_for(rt::msec(100));
  EXPECT_EQ(f.monitor->errors().size(), 2u);
}

// ----------------------------------------------- Monitor watching the real TV

namespace {

struct TvMonitorFixture {
  TvMonitorFixture()
      : injector(rt::Rng(7)),
        set(sched, bus, injector),
        spec_def(tv::build_tv_spec_model()) {
    core::MonitorBuilder builder(sched, bus);
    builder.model(spec_def)
        .input_topic("tv.input")
        .output_topic("tv.output")
        .comparison_period(rt::msec(20))
        .startup_grace(rt::msec(50))
        .channel_latency(rt::usec(200));
    for (const char* name : {"sound_level", "screen_state", "channel", "powered"}) {
      builder.threshold(name, 0.0, /*max_consecutive=*/3);
    }
    monitor = builder.build();
    set.start();
    monitor->start();
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  tv::TvSystem set;
  sm::StateMachineDef spec_def;
  std::unique_ptr<core::AwarenessMonitor> monitor;
};

}  // namespace

TEST(TvMonitor, FaultFreeUsageProducesNoErrors) {
  TvMonitorFixture f;
  f.set.press(tv::Key::kPower);
  f.sched.run_for(rt::msec(300));
  for (tv::Key k : {tv::Key::kVolumeUp, tv::Key::kChannelUp, tv::Key::kMute, tv::Key::kTeletext,
                    tv::Key::kBack, tv::Key::kMenu, tv::Key::kMenu}) {
    f.set.press(k);
    f.sched.run_for(rt::msec(300));
  }
  EXPECT_TRUE(f.monitor->errors().empty())
      << (f.monitor->errors().empty() ? "" : f.monitor->errors()[0].describe());
}

TEST(TvMonitor, DetectsLostVolumeCommand) {
  TvMonitorFixture f;
  f.set.press(tv::Key::kPower);
  f.sched.run_for(rt::msec(300));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", f.sched.now(),
                                     0, 1.0, {}});
  f.set.press(tv::Key::kVolumeUp);
  f.sched.run_for(rt::msec(500));
  ASSERT_FALSE(f.monitor->errors().empty());
  EXPECT_EQ(f.monitor->errors()[0].observable, "sound_level");
}

TEST(TvMonitor, DetectsStuckAudioOnMute) {
  TvMonitorFixture f;
  f.set.press(tv::Key::kPower);
  f.sched.run_for(rt::msec(300));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "audio", f.sched.now(), 0,
                                     1.0, {}});
  f.set.press(tv::Key::kMute);
  f.sched.run_for(rt::msec(500));
  ASSERT_FALSE(f.monitor->errors().empty());
  EXPECT_EQ(f.monitor->errors()[0].observable, "sound_level");
}

TEST(TvMonitor, DetectionLatencyIsBoundedByComparatorSettings) {
  TvMonitorFixture f;
  f.set.press(tv::Key::kPower);
  f.sched.run_for(rt::msec(300));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", f.sched.now(),
                                     0, 1.0, {}});
  f.set.press(tv::Key::kVolumeUp);
  const rt::SimTime injected = f.sched.now();
  f.sched.run_for(rt::sec(2));
  ASSERT_FALSE(f.monitor->errors().empty());
  const rt::SimTime detected = f.monitor->errors()[0].detected_at;
  // 3 consecutive deviations at a 20 ms compare period plus transport:
  // detection must land within ~200 ms of the fault manifesting.
  EXPECT_LE(detected - injected, rt::msec(200));
}

// ------------------------------------------ Builder-only construction surface

// What the deprecated Params-struct shim used to exercise, spelled as
// every call site must now spell it: a MonitorBuilder chain.
TEST(Monitor, BuilderReplacesDeprecatedParamsStruct) {
  rt::Scheduler sched;
  rt::EventBus bus;
  EchoSuo suo(sched, bus);
  auto monitor = core::MonitorBuilder(sched, bus)
                     .model(counter_model())
                     .input_topic("suo.in")
                     .output_topic("suo.out")
                     .threshold("count", 0.0, 1)
                     .comparison_period(rt::msec(10))
                     .startup_grace(rt::msec(5))
                     .build();
  monitor->start();
  suo.input("inc");
  suo.output("count", std::int64_t{9});
  sched.run_for(rt::msec(100));
  EXPECT_EQ(monitor->errors().size(), 1u);
}

// with_program without an arena: the legacy one-model-per-monitor path,
// reimplemented as a private batch of size 1.
TEST(Monitor, WithProgramBuildsStandaloneBatchOfOne) {
  rt::Scheduler sched;
  rt::EventBus bus;
  EchoSuo suo(sched, bus);
  auto program = core::compile_model(counter_model());
  auto monitor = core::MonitorBuilder(sched, bus)
                     .with_program(program)
                     .input_topic("suo.in")
                     .output_topic("suo.out")
                     .threshold("count", 0.0, 1)
                     .comparison_period(rt::msec(10))
                     .startup_grace(rt::msec(5))
                     .build();
  monitor->start();
  suo.input("inc");
  suo.output("count", std::int64_t{9});
  sched.run_for(rt::msec(100));
  EXPECT_EQ(monitor->errors().size(), 1u);
}

TEST(Monitor, BuildWithoutModelOrProgramThrows) {
  rt::Scheduler sched;
  rt::EventBus bus;
  EXPECT_THROW(core::MonitorBuilder(sched, bus).build(), std::logic_error);
}

// N monitors built from one ModelProgramPtr inside a fleet pack their
// state into one dense batch in their shard's arena.
TEST(Monitor, FleetBatchesMonitorsSharingOneProgram) {
  core::ShardedFleet fleet;  // one shard: every monitor shares its arena
  core::ModelArena& arena = fleet.shard(0).arena();
  auto program = core::compile_model(counter_model());
  for (int k = 0; k < 5; ++k) {
    core::MonitorBuilder builder;
    builder.with_program(program)
        .input_topic("suo.in")
        .output_topic("suo.out")
        .threshold("count", 0.0, 1)
        .comparison_period(rt::msec(10));
    fleet.add_monitor("aspect" + std::to_string(k), std::move(builder));
  }
  EXPECT_EQ(arena.batch_count(), 1u);
  EXPECT_EQ(arena.live_instances(), 5u);
  const auto* batch = arena.batch(program);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->slot_count(), 5u);
  fleet.start();
  EchoSuo suo(fleet.shard(0).sched(), fleet.shard(0).bus());
  suo.input("inc");
  suo.output("count", std::int64_t{9});
  fleet.run_for(rt::msec(100));
  // Every monitor watches the same topics, so each one reports.
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(fleet.error_count("aspect" + std::to_string(k)), 1u);
  }
}
