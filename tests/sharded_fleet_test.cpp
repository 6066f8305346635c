// Tests for the sharded fleet runtime and the metrics layer: instrument
// semantics, snapshot merging, deterministic mailbox drain order,
// MonitorBuilder contract checks, cross-shard delivery, a pin of every
// routing path at 1/2/4 shards, the IControl idempotency guarantees,
// and — the load-bearing property — identical error reports for the
// same seed across 1, 2 and 8 shards.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"
#include "testkit/golden_trace.hpp"

namespace core = trader::core;
namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace tk = trader::testkit;

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CounterAndGaugeBasics) {
  rt::MetricsRegistry reg;
  auto& c = reg.counter("hits");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("hits"), &c);  // same instrument on re-lookup
  reg.gauge("depth").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 2.5);
}

TEST(Metrics, HistogramBucketsAndQuantile) {
  rt::Histogram h({10.0, 100.0, 1000.0});
  for (double v : {1.0, 5.0, 50.0, 500.0, 5000.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 5556.0);
  EXPECT_EQ(h.bucket(0), 2u);  // <= 10
  EXPECT_EQ(h.bucket(1), 1u);  // <= 100
  EXPECT_EQ(h.bucket(2), 1u);  // <= 1000
  EXPECT_EQ(h.bucket(3), 1u);  // overflow
  rt::MetricsRegistry reg;
  auto& lat = reg.histogram("lat", {10.0, 100.0, 1000.0});
  for (double v : {1.0, 5.0, 50.0, 500.0, 5000.0}) lat.record(v);
  const auto snap = reg.snapshot().histograms.at("lat");
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.9));
  EXPECT_DOUBLE_EQ(snap.mean(), 5556.0 / 5.0);
}

TEST(Metrics, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const auto bounds = rt::Histogram::default_latency_bounds();
  ASSERT_GE(bounds.size(), 4u);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
}

TEST(Metrics, SnapshotMergeAddsAcrossRegistries) {
  rt::MetricsRegistry a;
  rt::MetricsRegistry b;
  a.counter("ticks").inc(3);
  b.counter("ticks").inc(4);
  b.counter("only_b").inc(1);
  a.gauge("monitors").set(2.0);
  b.gauge("monitors").set(5.0);
  a.histogram("lat", {10.0}).record(1.0);
  b.histogram("lat", {10.0}).record(100.0);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter("ticks"), 7u);
  EXPECT_EQ(merged.counter("only_b"), 1u);
  EXPECT_EQ(merged.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("monitors"), 7.0);
  const auto& lat = merged.histograms.at("lat");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_EQ(lat.buckets[0], 1u);  // <= 10
  EXPECT_EQ(lat.buckets[1], 1u);  // overflow
}

TEST(Metrics, JsonExportMentionsEveryInstrument) {
  rt::MetricsRegistry reg;
  reg.counter("fleet.epochs").inc(12);
  reg.gauge("fleet.shards").set(4.0);
  reg.histogram("tick_ns", {100.0}).record(50.0);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("fleet.epochs"), std::string::npos);
  EXPECT_NE(json.find("12"), std::string::npos);
  EXPECT_NE(json.find("fleet.shards"), std::string::npos);
  EXPECT_NE(json.find("tick_ns"), std::string::npos);
}

// ------------------------------------------------------------------- Mailbox

TEST(Mailbox, DrainsInSendTimeSourceSequenceOrder) {
  rt::Mailbox box;
  auto entry = [](rt::SimTime at, std::uint32_t source, std::uint64_t seq) {
    rt::Event ev;
    ev.name = std::to_string(at) + "/" + std::to_string(source) + "/" + std::to_string(seq);
    return rt::MailboxEntry{ev, at, source, seq};
  };
  // Push deliberately out of order, as racing producers would.
  box.push(entry(20, 1, 0));
  box.push(entry(10, 2, 5));
  box.push(entry(10, 0, 9));
  box.push(entry(10, 0, 3));
  box.push(entry(20, 0, 1));
  {
    // The view borrows the box's slots until it goes out of scope.
    const auto drained = box.drain();
    ASSERT_EQ(drained.size(), 5u);
    EXPECT_EQ(drained[0].event.name, "10/0/3");
    EXPECT_EQ(drained[1].event.name, "10/0/9");
    EXPECT_EQ(drained[2].event.name, "10/2/5");
    EXPECT_EQ(drained[3].event.name, "20/0/1");
    EXPECT_EQ(drained[4].event.name, "20/1/0");
  }
  EXPECT_TRUE(box.drain().empty());  // drain empties the box
}

TEST(Mailbox, RecycledSlotHoldsOnlyTheNewEventsFields) {
  rt::Mailbox box;
  rt::Event three;
  three.topic = "t";
  three.fields["a"] = std::int64_t{1};
  three.fields["b"] = std::string("two");
  three.fields["c"] = 3.0;
  box.push(three, 0, 0, 0);
  EXPECT_EQ(box.drain().size(), 1u);
  rt::Event one;
  one.topic = "t";
  one.fields["z"] = true;
  box.push(one, 10, 0, 1);  // lands in the slot the three-field event left
  const auto drained = box.drain();
  ASSERT_EQ(drained.size(), 1u);
  ASSERT_EQ(drained[0].event.fields.size(), 1u);
  EXPECT_EQ(drained[0].event.fields.begin()->first, "z");
  EXPECT_EQ(drained[0].sent_at, 10);
  EXPECT_EQ(drained[0].seq, 1u);
}

TEST(Mailbox, PushDuringDrainWaitsForTheNextDrain) {
  rt::Mailbox box;
  rt::Event ev;
  ev.name = "first";
  box.push(ev, 0, 0, 0);
  std::vector<std::string> seen;
  for (auto& e : box.drain()) {
    seen.push_back(e.event.name);
    rt::Event late;
    late.name = "late";
    box.push(late, 0, 0, 1);  // e.g. a handler publishing mid-drain
    EXPECT_EQ(e.event.name, "first");  // the slot being delivered is untouched
  }
  for (auto& e : box.drain()) seen.push_back(e.event.name);
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "late"}));
  EXPECT_EQ(box.pushed(), 2u);
}

// ------------------------------------------------------------ MonitorBuilder

namespace {

// The familiar counter spec model: increments on "inc", emits "count".
sm::StateMachineDef counter_model() {
  sm::StateMachineDef def("counter");
  const auto s = def.add_state("S");
  def.add_internal(s, "inc", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
    env.emit("count", {{"value", env.vars.get_int("n")}});
  });
  return def;
}

core::MonitorBuilder counter_monitor(const std::string& in, const std::string& out) {
  core::MonitorBuilder builder;
  builder.model(counter_model())
      .input_topic(in)
      .output_topic(out)
      .threshold("count", 0.0, /*max_consecutive=*/2)
      .comparison_period(rt::msec(10))
      .startup_grace(rt::msec(5));
  return builder;
}

}  // namespace

TEST(Builder, BuildWithoutRuntimeThrows) {
  core::MonitorBuilder unbound;
  unbound.model(counter_model());
  EXPECT_THROW(unbound.build(), std::logic_error);
}

TEST(Builder, BuildWithoutModelThrows) {
  rt::Scheduler sched;
  rt::EventBus bus;
  core::MonitorBuilder builder(sched, bus);
  EXPECT_THROW(builder.build(), std::logic_error);
}

// model(def) compiles to a ModelProgram, so a fleet places the model
// state in the owning shard's arena like with_program does.
TEST(Builder, ModelDefLandsInTheShardArena) {
  core::ShardedFleet fleet(core::ShardedFleetConfig{});
  fleet.add_monitor("a", counter_monitor("in.a", "out.a"));
  fleet.add_monitor("b", counter_monitor("in.b", "out.b"));
  EXPECT_EQ(fleet.shard(0).arena().live_instances(), 2u);
}

TEST(Builder, FirstOutputTopicReplacesDefault) {
  core::MonitorBuilder builder;
  ASSERT_EQ(builder.output_topics().size(), 1u);
  EXPECT_EQ(builder.output_topics()[0], "tv.output");
  builder.output_topic("a").output_topic("b");
  ASSERT_EQ(builder.output_topics().size(), 2u);
  EXPECT_EQ(builder.output_topics()[0], "a");
  EXPECT_EQ(builder.output_topics()[1], "b");
}

// ------------------------------------------------ ShardedFleet: determinism

namespace {

// One scripted multi-monitor session: drive `monitors` counter monitors
// via the external publish path, dropping one command's effect on odd
// monitors (the fault). Returns the golden trace of all reported errors.
tk::GoldenTrace run_session(std::size_t shards, int monitors = 6) {
  core::ShardedFleetConfig cfg;
  cfg.shards = shards;
  cfg.epoch = rt::msec(5);
  cfg.seed = 42;
  core::ShardedFleet fleet(cfg);
  for (int m = 0; m < monitors; ++m) {
    fleet.add_monitor("aspect" + std::to_string(m),
                      counter_monitor("in." + std::to_string(m), "out." + std::to_string(m)));
  }
  fleet.start();

  std::vector<std::int64_t> system_count(static_cast<std::size_t>(monitors), 0);
  for (int step = 0; step < 12; ++step) {
    for (int m = 0; m < monitors; ++m) {
      rt::Event in;
      in.topic = "in." + std::to_string(m);
      in.name = "key";
      in.fields["key"] = std::string("inc");
      fleet.publish(in);
      // Odd monitors silently drop the effect of command #4: the model
      // expects the increment, the system output stays behind.
      if (!(m % 2 == 1 && step == 4)) ++system_count[static_cast<std::size_t>(m)];
      rt::Event out;
      out.topic = "out." + std::to_string(m);
      out.name = "count";
      out.fields["value"] = system_count[static_cast<std::size_t>(m)];
      fleet.publish(out);
    }
    fleet.run_for(rt::msec(20));
  }
  fleet.run_for(rt::msec(100));
  fleet.stop();

  tk::GoldenTrace trace;
  trace.capture_errors(fleet.errors());
  return trace;
}

}  // namespace

TEST(ShardedFleet, SameSeedSameErrorsAcrossShardCounts) {
  const auto one = run_session(1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.lines().size(), 3u);  // aspects 1, 3, 5 diverge
  const auto d2 = tk::GoldenTrace::diff(one, run_session(2));
  EXPECT_TRUE(d2.identical) << d2.describe();
  const auto d8 = tk::GoldenTrace::diff(one, run_session(8));
  EXPECT_TRUE(d8.identical) << d8.describe();
}

TEST(ShardedFleet, RepeatedRunsAreIdentical) {
  EXPECT_EQ(run_session(4).fingerprint(), run_session(4).fingerprint());
}

// ------------------------------------------- ShardedFleet: delivery + routes

TEST(ShardedFleet, ExternalEventsArriveAtNextEpochBoundary) {
  core::ShardedFleetConfig cfg;
  cfg.shards = 4;
  cfg.epoch = rt::msec(10);
  core::ShardedFleet fleet(cfg);
  fleet.add_route("ping", 2);
  std::vector<rt::SimTime> arrivals;
  fleet.shard(2).bus().subscribe("ping", [&](const rt::Event& ev) {
    arrivals.push_back(ev.timestamp);
  });
  rt::Event ev;
  ev.topic = "ping";
  ev.name = "hello";
  fleet.publish(ev);  // sent at t=0
  fleet.run_for(rt::msec(25));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 0);  // drained before the first epoch runs
  EXPECT_GE(fleet.metrics().counter("fleet.external_events"), 1u);
}

TEST(ShardedFleet, ShardPublishCrossesShards) {
  core::ShardedFleetConfig cfg;
  cfg.shards = 4;
  cfg.epoch = rt::msec(10);
  core::ShardedFleet fleet(cfg);
  fleet.add_route("pong", 3);
  std::vector<rt::SimTime> arrivals;
  fleet.shard(3).bus().subscribe("pong", [&](const rt::Event& ev) {
    arrivals.push_back(ev.timestamp);
  });
  // A task inside shard 0 publishes mid-epoch; shard 3 must see it at
  // the next boundary, not mid-flight.
  fleet.shard(0).sched().schedule_at(rt::msec(12), [&fleet] {
    rt::Event ev;
    ev.topic = "pong";
    ev.name = "from_shard0";
    fleet.shard(0).publish(ev);
  });
  fleet.run_for(rt::msec(40));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], rt::msec(20));  // sent in (10,20] -> delivered at 20
  EXPECT_GE(fleet.metrics().counter("fleet.cross_shard_out"), 1u);
}

// ------------------------------------------------- FleetRouting: the pin

namespace {

/// What one routing session delivered, per subscriber, plus the fleet's
/// counters. Each log is written by one shard's thread only.
struct RoutingRun {
  std::vector<std::string> dual_first;  ///< "dual" on shard 0.
  std::vector<std::string> dual_last;   ///< "dual" on the last shard.
  std::vector<std::string> solo;        ///< "solo" on shard 1 % n.
  std::vector<std::string> wildcard;    ///< Custom topics seen by a "" subscriber.
  std::size_t wildcard_monitor_events = 0;
  rt::MetricsSnapshot metrics;
};

rt::Event named(const std::string& topic, const std::string& name) {
  rt::Event ev;
  ev.topic = topic;
  ev.name = name;
  return ev;
}

rt::Event counter_input(const std::string& suffix) {
  rt::Event ev = named("in." + suffix, "key");
  ev.fields["key"] = std::string("inc");
  return ev;
}

rt::Event counter_output(const std::string& suffix, std::int64_t value) {
  rt::Event ev = named("out." + suffix, "count");
  ev.fields["value"] = value;
  return ev;
}

// Every way an event finds its shards: a topic owned by two shards (and
// routed twice to one of them), a custom subscriber behind the public
// add_route, a wildcard subscriber on a shard bus, Shard::publish and a
// direct bus publish from a shard task (which stays on that shard), an
// unrouted topic, and a monitor added after stop() whose topics must
// route after start().
RoutingRun routing_session(std::size_t shards) {
  core::ShardedFleetConfig cfg;
  cfg.shards = shards;
  cfg.epoch = rt::msec(10);
  cfg.seed = 42;
  core::ShardedFleet fleet(cfg);
  const std::size_t last = shards - 1;
  const std::size_t solo_shard = 1 % shards;
  fleet.add_route("dual", 0);
  fleet.add_route("dual", last);
  fleet.add_route("dual", last);  // a repeated route is one route
  fleet.add_route("solo", solo_shard);
  for (int m = 0; m < 3; ++m) {
    const std::string suffix = "m" + std::to_string(m);
    fleet.add_monitor(suffix, counter_monitor("in." + suffix, "out." + suffix));
  }

  RoutingRun run;
  const auto tap = [](std::vector<std::string>& log) {
    return [&log](const rt::Event& ev) {
      log.push_back(ev.topic + "/" + ev.name + "@" + std::to_string(ev.timestamp));
    };
  };
  fleet.shard(0).bus().subscribe("dual", tap(run.dual_first));
  fleet.shard(last).bus().subscribe("dual", tap(run.dual_last));
  fleet.shard(solo_shard).bus().subscribe("solo", tap(run.solo));
  fleet.shard(last).bus().subscribe("", [&run](const rt::Event& ev) {
    if (ev.topic.rfind("in.", 0) == 0 || ev.topic.rfind("out.", 0) == 0) {
      ++run.wildcard_monitor_events;
    } else {
      run.wildcard.push_back(ev.topic + "/" + ev.name + "@" + std::to_string(ev.timestamp));
    }
  });
  fleet.start();

  fleet.publish(counter_input("m0"));
  fleet.publish(counter_output("m0", 1));
  fleet.publish(named("dual", "a"));
  fleet.publish(named("solo", "b"));
  fleet.publish(named("nobody", "c"));  // unrouted
  fleet.shard(0).sched().schedule_at(rt::msec(12), [&fleet] {
    rt::Event direct = named("dual", "direct");
    direct.timestamp = fleet.shard(0).sched().now();
    fleet.shard(0).bus().publish(direct);  // shard 0's private bus: local only
    fleet.shard(0).publish(named("dual", "from_shard"));
    fleet.shard(0).publish(named("solo", "from_shard"));
    fleet.shard(0).publish(named("nobody", "from_shard"));  // unrouted
  });
  fleet.publish(counter_input("m1"));
  fleet.publish(counter_output("m1", 1));
  fleet.run_for(rt::msec(30));

  // A monitor added while stopped routes once the fleet starts again.
  fleet.stop();
  fleet.add_monitor("late", counter_monitor("in.late", "out.late"));
  fleet.start();
  fleet.publish(counter_input("late"));
  fleet.publish(counter_output("late", 1));
  fleet.publish(named("dual", "after_restart"));
  fleet.run_for(rt::msec(20));
  fleet.publish(counter_input("late"));
  fleet.publish(counter_output("late", 7));  // the model expects 2
  fleet.publish(counter_input("m2"));
  fleet.publish(counter_output("m2", 1));
  fleet.run_for(rt::msec(60));
  fleet.stop();
  run.metrics = fleet.metrics();
  return run;
}

}  // namespace

// Pins who receives what, when, and in which order, at 1, 2 and 4
// shards, together with the routing counters.
TEST(FleetRouting, DeliveryAndCountersArePinnedAcrossShardCounts) {
  const std::vector<std::string> model_counters = {"comparator.", "controller.errors", "model."};
  std::string one_shard_fingerprint;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RoutingRun run = routing_session(shards);
    const bool last_is_solo = 1 % shards == shards - 1;
    EXPECT_EQ(run.dual_first,
              (std::vector<std::string>{"dual/a@0", "dual/direct@12000", "dual/from_shard@20000",
                                        "dual/after_restart@30000"}));
    if (shards == 1) {
      EXPECT_EQ(run.dual_last, run.dual_first);  // the same bus
    } else {
      // A direct publish on shard 0's bus never leaves shard 0.
      EXPECT_EQ(run.dual_last, (std::vector<std::string>{"dual/a@0", "dual/from_shard@20000",
                                                         "dual/after_restart@30000"}));
    }
    EXPECT_EQ(run.solo, (std::vector<std::string>{"solo/b@0", "solo/from_shard@20000"}));
    std::vector<std::string> wildcard = {"dual/a@0"};
    if (last_is_solo) wildcard.push_back("solo/b@0");
    if (shards == 1) wildcard.push_back("dual/direct@12000");  // same bus, not a forwarded copy
    wildcard.push_back("dual/from_shard@20000");
    if (last_is_solo) wildcard.push_back("solo/from_shard@20000");
    wildcard.push_back("dual/after_restart@30000");
    EXPECT_EQ(run.wildcard, wildcard);

    const auto& m = run.metrics;
    EXPECT_EQ(m.counter("fleet.external_events"), 13u);
    EXPECT_EQ(m.counter("fleet.unrouted_events"), 2u);
    EXPECT_EQ(m.counter("model.inputs"), 5u);
    EXPECT_EQ(m.counter("comparator.errors"), 1u);
    EXPECT_EQ(m.counter("controller.errors"), 1u);
    // Cross-shard copies: the two Shard::publish copies that leave
    // shard 0; the direct bus publish is never forwarded.
    EXPECT_EQ(m.counter("fleet.cross_shard_out"), shards == 1 ? 0u : 2u);
    // Monitor traffic the wildcard saw: the events of the monitors
    // placed on the last shard.
    const std::size_t monitor_events = shards == 1 ? 10 : shards == 2 ? 6 : 2;
    EXPECT_EQ(run.wildcard_monitor_events, monitor_events);
    if (shards == 1) one_shard_fingerprint = m.fingerprint(model_counters);
    EXPECT_EQ(m.fingerprint(model_counters), one_shard_fingerprint);
  }
}

TEST(ShardedFleet, UnroutedEventsAreCountedNotDelivered) {
  core::ShardedFleet fleet({2, rt::msec(10), 7});
  rt::Event ev;
  ev.topic = "nobody.listens";
  fleet.publish(ev);
  EXPECT_EQ(fleet.metrics().counter("fleet.unrouted_events"), 1u);
}

TEST(ShardedFleet, PlacementIsStableAndAddWhileRunningThrows) {
  core::ShardedFleetConfig cfg;
  cfg.shards = 8;
  core::ShardedFleet fleet(cfg);
  const auto s = fleet.shard_of("sound");
  EXPECT_EQ(fleet.shard_of("sound"), s);  // same run
  core::ShardedFleet other(cfg);
  EXPECT_EQ(other.shard_of("sound"), s);  // different fleet instance
  fleet.add_monitor("sound", counter_monitor("in.s", "out.s"));
  EXPECT_EQ(&fleet.monitor("sound"), &fleet.monitor("sound"));
  EXPECT_THROW(fleet.monitor("ghost"), std::out_of_range);
  fleet.start();
  EXPECT_THROW(fleet.add_monitor("late", counter_monitor("in.l", "out.l")), std::logic_error);
  fleet.stop();
}

// The caller runs shard 0 itself: a one-shard fleet spawns no worker,
// so its recovery handler fires on the thread that called run_until().
TEST(ShardedFleet, OneShardRunsHandlerOnTheCallingThread) {
  core::ShardedFleet fleet;
  ASSERT_EQ(fleet.shard_count(), 1u);
  fleet.add_monitor("a", counter_monitor("in.a", "out.a"));
  std::vector<std::thread::id> handler_threads;
  fleet.set_recovery_handler([&](const core::AspectError&) {
    handler_threads.push_back(std::this_thread::get_id());
  });
  rt::Event in;
  in.topic = "in.a";
  in.name = "key";
  in.fields["key"] = std::string("inc");
  fleet.publish(in);
  rt::Event out;
  out.topic = "out.a";
  out.name = "count";
  out.fields["value"] = std::int64_t{0};  // the model expects 1
  fleet.publish(out);
  fleet.run_for(rt::msec(100));
  ASSERT_EQ(handler_threads.size(), 1u);
  EXPECT_EQ(handler_threads[0], std::this_thread::get_id());
}

// An exception inside any shard reaches the run_until() caller after
// its epoch completes, without stranding the workers at the barrier:
// the fleet keeps running and shuts down cleanly.
TEST(ShardedFleet, ShardExceptionReachesTheCaller) {
  core::ShardedFleet fleet({2, rt::msec(10), 1});
  for (std::size_t s = 0; s < 2; ++s) {
    fleet.shard(s).sched().schedule_at(rt::msec(s == 0 ? 12 : 22), [s] {
      throw std::runtime_error("shard " + std::to_string(s));
    });
  }
  const auto failure = [&fleet] {
    try {
      fleet.run_for(rt::msec(20));
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(failure(), "shard 0");  // the caller's own shard
  EXPECT_EQ(failure(), "shard 1");  // forwarded from the worker
  EXPECT_EQ(failure(), "");
  EXPECT_EQ(fleet.now(), rt::msec(40));  // a failed epoch does not advance now()
}

// -------------------------------------------- IControl lifecycle idempotency

TEST(Lifecycle, DoubleStartDoesNotDoubleTick) {
  rt::Scheduler sched;
  rt::EventBus bus;
  rt::MetricsRegistry metrics;
  auto monitor = counter_monitor("in.x", "out.x").metrics(&metrics).build(sched, bus);
  monitor->start();
  monitor->start();  // must be a no-op, not a second periodic tick
  sched.run_until(rt::msec(100));
  const auto ticks = metrics.snapshot().counter("controller.ticks");
  EXPECT_GT(ticks, 0u);
  // 10 ms period over 100 ms: ~10 ticks if single-scheduled, ~20 if the
  // second start() registered another periodic task.
  EXPECT_LE(ticks, 12u);
}

TEST(Lifecycle, StopIsIdempotentAndRestartWorks) {
  rt::Scheduler sched;
  rt::EventBus bus;
  auto monitor = counter_monitor("in.x", "out.x").build(sched, bus);
  EXPECT_FALSE(monitor->running());
  monitor->start();
  EXPECT_TRUE(monitor->running());
  monitor->stop();
  monitor->stop();  // second stop is a no-op
  EXPECT_FALSE(monitor->running());
  monitor->start();  // restart after stop is supported
  EXPECT_TRUE(monitor->running());
  sched.run_until(rt::msec(50));
  monitor->stop();
}

TEST(Lifecycle, FleetStartStopIdempotent) {
  core::ShardedFleet fleet({2, rt::msec(10), 1});
  fleet.add_monitor("a", counter_monitor("in.a", "out.a"));
  EXPECT_FALSE(fleet.running());
  fleet.start();
  fleet.start();  // no-op
  EXPECT_TRUE(fleet.running());
  fleet.run_for(rt::msec(50));
  fleet.stop();
  fleet.stop();  // no-op
  EXPECT_FALSE(fleet.running());
  fleet.start();  // restart
  fleet.run_for(rt::msec(50));
  EXPECT_TRUE(fleet.running());
}

// ------------------------------------------------- metrics wired end to end

TEST(ShardedFleet, MetricsCoverTheWholeLoop) {
  core::ShardedFleetConfig cfg;
  cfg.shards = 2;
  cfg.epoch = rt::msec(5);
  core::ShardedFleet fleet(cfg);
  for (int m = 0; m < 4; ++m) {
    fleet.add_monitor("aspect" + std::to_string(m),
                      counter_monitor("in." + std::to_string(m), "out." + std::to_string(m)));
  }
  fleet.start();
  for (int m = 0; m < 4; ++m) {
    rt::Event in;
    in.topic = "in." + std::to_string(m);
    in.name = "key";
    in.fields["key"] = std::string("inc");
    fleet.publish(in);
    rt::Event out;
    out.topic = "out." + std::to_string(m);
    out.name = "count";
    out.fields["value"] = std::int64_t{0};  // all four diverge
    fleet.publish(out);
  }
  fleet.run_for(rt::msec(200));
  fleet.stop();

  const auto snap = fleet.metrics();
  EXPECT_GT(snap.counter("fleet.epochs"), 0u);
  EXPECT_GT(snap.counter("fleet.external_events"), 0u);
  EXPECT_GT(snap.counter("controller.ticks"), 0u);
  EXPECT_GT(snap.counter("comparator.comparisons"), 0u);
  EXPECT_GT(snap.counter("comparator.deviations"), 0u);
  EXPECT_EQ(snap.counter("comparator.errors"), 4u);
  EXPECT_GT(snap.counter("model.inputs"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fleet.shards"), 2.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fleet.monitors"), 4.0);
  const auto& lat = snap.histograms.at("controller.tick_latency_ns");
  EXPECT_GT(lat.count, 0u);
  EXPECT_GT(lat.mean(), 0.0);
  // The whole snapshot exports as JSON for the bench trajectories.
  EXPECT_NE(snap.to_json().find("comparator.comparisons"), std::string::npos);
}
