// E11 (§2): complexity growth and the cost of awareness.
//
// Paper §2 motivates the whole project with complexity growth (TV
// software: 1 KB in 1980 to >20 MB in 2008; "given the large number of
// possible user settings and types of input, exhaustive testing is
// impossible"). We quantify that motivation on our substrate:
//   (a) the configuration space of a feature-parameterized TV model
//       grows exponentially with feature count, while
//   (b) the run-time awareness loop's per-event cost grows only mildly
//       with model size — the economic argument for run-time awareness
//       over exhaustive pre-release testing.
// E15 extends the argument to fleet scale: the sharded runtime spreads
// many awareness monitors over worker threads and must keep the *same*
// error reports regardless of shard count — throughput is only worth
// having if determinism survives it. The run also exports the merged
// metrics snapshot to BENCH_scale.json for the CI check script. Two
// microbenchmark rows price the shard's hot path on its own: a
// scheduler push + pop beside 1k/4k/16k pending periodic keys, and the
// CPU an idle 4096-monitor fleet burns per 10 ms epoch.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "core/model_program.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/checker.hpp"
#include "statemachine/machine.hpp"

namespace sm = trader::statemachine;
namespace rt = trader::runtime;
namespace core = trader::core;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

// A TV-like model with `features` independent two-state features plus a
// channel selector of `channels` values: reachable configuration count
// is channels * 2^features.
sm::StateMachineDef feature_model(int features) {
  sm::StateMachineDef def("features");
  const auto on = def.add_state("On");
  def.add_state("Idle", on);
  for (int f = 0; f < features; ++f) {
    const std::string var = "feat" + std::to_string(f);
    def.add_internal(on, "toggle" + std::to_string(f), nullptr, [var](sm::ActionEnv& env) {
      env.vars.set_bool(var, !env.vars.get_bool(var, false));
      env.emit(var, {{"value", env.vars.get_bool(var, false)}});
    });
  }
  return def;
}

// The fleet_epoch spec model: "set" emits its value as the expected
// "level".
sm::StateMachineDef level_model() {
  sm::StateMachineDef def("level");
  const auto s = def.add_state("S");
  def.add_internal(s, "set", nullptr, [](sm::ActionEnv& env) {
    const auto it = env.event.params.find("v");
    if (it != env.event.params.end()) env.emit("level", {{"value", it->second}});
  });
  return def;
}

// A deep-hierarchy model for dispatch-cost scaling.
sm::StateMachineDef deep_model(int depth, int breadth) {
  sm::StateMachineDef def("deep");
  std::vector<sm::StateId> parents{def.add_state("Root")};
  for (int d = 0; d < depth; ++d) {
    std::vector<sm::StateId> next;
    for (sm::StateId p : parents) {
      for (int b = 0; b < breadth; ++b) {
        next.push_back(def.add_state("S" + std::to_string(d) + "_" + std::to_string(b) + "_" +
                                         std::to_string(p),
                                     p));
      }
      if (next.size() > 64) break;
    }
    parents = next;
    if (parents.size() > 64) break;
  }
  // Event handlers at the root so every dispatch walks the hierarchy.
  def.add_internal(def.find_state("Root"), "ping", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
  });
  return def;
}

void report() {
  banner("E11", "complexity growth vs awareness cost (paper §2 motivation)");

  Table t({"features", "user-visible configurations", "model transitions", "ns/event"});
  for (int features : {4, 8, 12, 16, 20}) {
    auto def = feature_model(features);
    const double configs = std::pow(2.0, features);

    // One event dispatched and its outputs drained, on the compiled engine.
    sm::StateMachine m(def);
    m.start(0);
    const int rounds = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < rounds; ++i) {
      m.dispatch(sm::SmEvent::named("toggle" + std::to_string(i % features)), i);
      m.drain_outputs();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / rounds;
    t.row({fmt_int(features), fmt(configs, 0),
           fmt_int(static_cast<std::int64_t>(def.transitions().size())), fmt(ns, 0)});
  }
  t.print();
  std::printf("paper claim: the input/configuration space explodes exponentially (exhaustive\n"
              "testing impossible) while the run-time model's per-event cost stays flat --\n"
              "monitoring scales where testing cannot.\n\n");

  banner("E11b", "software growth context from §2");
  Table growth({"year", "TV software size (paper)", "configs of a 20-feature model"});
  growth.row({"1980", "1 KB", "-"});
  growth.row({"2008", ">20 MB (20,000x)", fmt(std::pow(2.0, 20), 0)});
  growth.print();
}

// ------------------------------------------------- E15: sharded fleet scale

// The counter spec model used throughout the determinism tests.
sm::StateMachineDef counter_model() {
  sm::StateMachineDef def("counter");
  const auto s = def.add_state("S");
  def.add_internal(s, "inc", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
    env.emit("count", {{"value", env.vars.get_int("n")}});
  });
  return def;
}

struct ScaleRun {
  double wall_ms = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t epochs = 0;
  std::size_t errors = 0;
  std::string fingerprint;
  std::string metrics_json;
};

// One scripted fleet session: `monitors` counter monitors under external
// traffic, with odd monitors silently dropping one command near the end
// (so the comparator has real work and real errors to report).
ScaleRun run_fleet(std::size_t shards, int monitors, int steps) {
  core::ShardedFleetConfig cfg;
  cfg.shards = shards;
  cfg.epoch = rt::msec(5);
  cfg.seed = 0xBE11C;
  core::ShardedFleet fleet(cfg);
  for (int m = 0; m < monitors; ++m) {
    core::MonitorBuilder builder;
    builder.model(counter_model())
        .input_topic("in." + std::to_string(m))
        .output_topic("out." + std::to_string(m))
        .threshold("count", 0.0, /*max_consecutive=*/2)
        .comparison_period(rt::msec(10))
        .startup_grace(rt::msec(5));
    fleet.add_monitor("aspect" + std::to_string(m), std::move(builder));
  }
  fleet.start();

  std::vector<std::int64_t> system_count(static_cast<std::size_t>(monitors), 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int step = 0; step < steps; ++step) {
    for (int m = 0; m < monitors; ++m) {
      rt::Event in;
      in.topic = "in." + std::to_string(m);
      in.name = "key";
      in.fields["key"] = std::string("inc");
      fleet.publish(in);
      if (!(m % 2 == 1 && step == steps - 4)) ++system_count[static_cast<std::size_t>(m)];
      rt::Event out;
      out.topic = "out." + std::to_string(m);
      out.name = "count";
      out.fields["value"] = system_count[static_cast<std::size_t>(m)];
      fleet.publish(out);
    }
    fleet.run_for(rt::msec(15));
  }
  fleet.run_for(rt::msec(100));
  const auto t1 = std::chrono::steady_clock::now();
  fleet.stop();

  ScaleRun result;
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const auto snap = fleet.metrics();
  result.ticks = snap.counter("controller.ticks");
  result.epochs = snap.counter("fleet.epochs");
  result.errors = fleet.errors().size();
  for (const auto& e : fleet.errors()) {
    result.fingerprint += e.aspect + "@" + std::to_string(e.report.detected_at) + ";";
  }
  result.metrics_json = snap.to_json();
  return result;
}

void report_scale() {
  banner("E15", "sharded fleet runtime: throughput vs shards, determinism held");

  const int monitors = 48;
  const int steps = 120;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: %u hardware thread(s); %d monitors, %d traffic steps per run\n\n",
              cores, monitors, steps);

  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<ScaleRun> runs;
  for (std::size_t shards : shard_counts) runs.push_back(run_fleet(shards, monitors, steps));

  const double base_ms = runs[0].wall_ms;
  const std::string& base_fp = runs[0].fingerprint;
  Table t({"shards", "wall ms", "ticks", "ticks/sec", "speedup", "errors",
           "same reports as 1 shard"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleRun& r = runs[i];
    t.row({fmt_int(static_cast<std::int64_t>(shard_counts[i])), fmt(r.wall_ms, 1),
           fmt_int(static_cast<std::int64_t>(r.ticks)),
           fmt(static_cast<double>(r.ticks) / (r.wall_ms / 1000.0), 0),
           fmt(base_ms / r.wall_ms, 2), fmt_int(static_cast<std::int64_t>(r.errors)),
           r.fingerprint == base_fp ? "yes" : "NO -- BUG"});
  }
  t.print();
  std::printf("paper claim (§5 scale-up): awareness must extend from one aspect to a fleet\n"
              "without changing what is detected. Error reports are byte-identical across\n"
              "shard counts; speedup tracks available cores (this host has %u).\n\n", cores);

  // Machine-readable snapshot for scripts/check.sh.
  std::ofstream json("BENCH_scale.json");
  json << "{\n  \"experiment\": \"bench_scale\",\n";
  json << "  \"hardware_threads\": " << cores << ",\n";
  json << "  \"monitors\": " << monitors << ",\n  \"steps\": " << steps << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScaleRun& r = runs[i];
    json << "    {\"shards\": " << shard_counts[i] << ", \"wall_ms\": " << fmt(r.wall_ms, 3)
         << ", \"ticks\": " << r.ticks << ", \"epochs\": " << r.epochs
         << ", \"errors\": " << r.errors << ", \"speedup\": " << fmt(base_ms / r.wall_ms, 3)
         << ", \"deterministic\": " << (r.fingerprint == base_fp ? "true" : "false") << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"metrics_8_shards\": " << runs.back().metrics_json << "\n}\n";
  std::printf("wrote BENCH_scale.json (merged 8-shard metrics snapshot + per-shard runs)\n");
}

void report_all() {
  report();
  report_scale();
}

// ------------------------------------------------------- microbenchmarks

void BM_ShardedFleetEpoch(benchmark::State& state) {
  core::ShardedFleetConfig cfg;
  cfg.shards = static_cast<std::size_t>(state.range(0));
  cfg.epoch = rt::msec(5);
  core::ShardedFleet fleet(cfg);
  for (int m = 0; m < 16; ++m) {
    core::MonitorBuilder builder;
    builder.model(counter_model())
        .input_topic("in." + std::to_string(m))
        .output_topic("out." + std::to_string(m))
        .threshold("count", 0.0, 2)
        .comparison_period(rt::msec(10));
    fleet.add_monitor("aspect" + std::to_string(m), std::move(builder));
  }
  fleet.start();
  for (auto _ : state) {
    fleet.run_for(rt::msec(5));  // exactly one epoch: mailbox drain + barrier + tick
  }
  fleet.stop();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("shards=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ShardedFleetEpoch)->Arg(1)->Arg(2)->Arg(8);

// One push and one pop of a constant-delay stream (a channel's
// deliveries) while `range(0)` periodic keys wait far in the future
// (monitor ticks on a loaded shard): the scheduler's per-event cost.
void BM_SchedulerConstantDelay(benchmark::State& state) {
  rt::Scheduler sched;
  const auto pending = static_cast<int>(state.range(0));
  std::vector<rt::TaskHandle> periodic;
  for (int i = 0; i < pending; ++i) {
    periodic.push_back(sched.schedule_every(rt::sec(1'000'000) + i, [] {}));
  }
  std::uint64_t fired = 0;
  sched.schedule_after(rt::usec(200), [&fired] { ++fired; });
  for (auto _ : state) {
    sched.schedule_after(rt::usec(200), [&fired] { ++fired; });
    sched.step();
  }
  benchmark::DoNotOptimize(fired);
  for (const rt::TaskHandle h : periodic) sched.cancel(h);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("pending=" + std::to_string(pending));
}
BENCHMARK(BM_SchedulerConstantDelay)->Arg(1000)->Arg(4000)->Arg(16000);

// One idle 10 ms epoch of a fleet_epoch-shaped fleet (4096 monitors on
// one compiled program, 50 ms comparison ticks) with nothing published:
// what the fleet costs when the SUO is quiet, in CPU time of the whole
// process (the shard workers included).
void BM_IdleFleetEpoch(benchmark::State& state) {
  core::ShardedFleetConfig cfg;
  cfg.shards = static_cast<std::size_t>(state.range(0));
  cfg.epoch = rt::msec(10);
  core::ShardedFleet fleet(cfg);
  const core::ModelProgramPtr program = core::compile_model(level_model());
  core::ObservableConfig oc;
  oc.name = "level";
  oc.time_based = false;
  for (int m = 0; m < 4096; ++m) {
    core::MonitorBuilder builder;
    builder.with_program(program)
        .input_topic("in." + std::to_string(m))
        .output_topic("out." + std::to_string(m))
        .observe(oc)
        .startup_grace(0);
    fleet.add_monitor("m" + std::to_string(m), std::move(builder));
  }
  fleet.start();
  for (auto _ : state) fleet.run_for(cfg.epoch);
  fleet.stop();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("monitors=4096 shards=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_IdleFleetEpoch)
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Dispatch through a deep hierarchy on the compiled engine (a one-slot
// StateMachine).
void BM_DeepHierarchyDispatch(benchmark::State& state) {
  auto def = deep_model(static_cast<int>(state.range(0)), 2);
  sm::StateMachine m(def);
  m.start(0);
  rt::SimTime t = 0;
  for (auto _ : state) {
    m.dispatch(sm::SmEvent::named("ping"), ++t);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("depth=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_DeepHierarchyDispatch)->Arg(2)->Arg(4)->Arg(6);

void BM_CompileModel(benchmark::State& state) {
  auto def = feature_model(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sm::ModelProgram::compile(def)->leaf_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileModel)->Arg(8)->Arg(20);

void BM_ReachabilityCheck(benchmark::State& state) {
  auto def = deep_model(static_cast<int>(state.range(0)), 2);
  sm::ModelChecker checker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.reachable_states(def).size());
  }
}
BENCHMARK(BM_ReachabilityCheck)->Arg(4)->Arg(6);

}  // namespace

TRADER_BENCH_MAIN(report_all)
