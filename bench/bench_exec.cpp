// E18: batched model execution — steps/sec/core and bytes/monitor.
//
// The paper's awareness fleets scale with the number of modeled SUOs;
// the executor-v2 redesign (DESIGN.md §4f) claims that compiling the
// spec model once into an immutable ModelProgram and packing per-
// monitor state into structure-of-arrays batches buys both throughput
// (>= 1M model steps/sec/core) and footprint (tens of bytes of dense
// state per monitor instead of a full table set). This bench measures
// both for the one engine in src/:
//   batched(N)    one BatchExecutor stepping N instances per sweep;
//                 batched(1) is the standalone monitor path and
//                 StateMachine
// Results land in BENCH_exec.json (with hardware_concurrency, so
// steps/sec/core is reproducible accounting) for scripts/check.sh.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "statemachine/batch.hpp"
#include "statemachine/definition.hpp"
#include "statemachine/program.hpp"

namespace sm = trader::statemachine;
namespace rt = trader::runtime;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

double now_ms() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Representative spec model: the scripted-counter shape the campaign
/// monitors run — one hierarchical region, counting actions, an output
/// per transition. Hot path = guarded dispatch + action + emit.
sm::StateMachineDef bench_model() {
  sm::StateMachineDef def("bench");
  const auto run = def.add_state("Run");
  const auto a = def.add_state("A", run);
  const auto b = def.add_state("B", run);
  def.add_state("Off");
  sm::Action count = [](sm::ActionEnv& env) {
    env.vars.set_int("ctr", env.vars.get_int("ctr") + 1);
  };
  def.add_transition(a, b, "tick", nullptr, count);
  def.add_transition(b, a, "tick", nullptr, count);
  // A guarded self-loop that never fires: every dispatch pays one
  // realistic guard rejection before the match, like production specs.
  def.add_transition(run, run, "tick",
                     [](const sm::Context& c, const sm::SmEvent&) {
                       return c.get_int("ctr") < 0;
                     },
                     nullptr);
  return def;
}

struct KernelRun {
  std::string kernel;
  double steps_per_sec = 0.0;
  std::size_t bytes_per_monitor = 0;  ///< approx full per-instance cost
  std::size_t dense_bytes = 0;        ///< hot-array bytes only
};

constexpr int kSteps = 4'000'000;  ///< dispatches per kernel measurement

KernelRun run_batched(const sm::ModelProgramPtr& program, int batch_size) {
  sm::BatchExecutor batch(program);
  std::vector<sm::BatchExecutor::InstanceId> ids;
  ids.reserve(static_cast<std::size_t>(batch_size));
  for (int i = 0; i < batch_size; ++i) {
    ids.push_back(batch.add_instance());
    batch.start(ids.back(), 0);
  }
  const sm::SmEvent ev = sm::SmEvent::named("tick");
  const int sweeps = kSteps / batch_size;
  const double start = now_ms();
  for (int s = 0; s < sweeps; ++s) {
    const rt::SimTime now = s;
    for (const auto id : ids) batch.dispatch(id, ev, now);
  }
  const double wall = now_ms() - start;
  KernelRun r;
  r.kernel = "batched(" + std::to_string(batch_size) + ")";
  r.steps_per_sec = static_cast<double>(sweeps) * batch_size / (wall / 1000.0);
  r.bytes_per_monitor = batch.approx_bytes_per_instance();
  r.dense_bytes = batch.dense_bytes_per_instance();
  return r;
}

void report() {
  banner("E18", "batched model execution: steps/sec/core and bytes/monitor");

  const auto program = sm::ModelProgram::compile(bench_model());
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<KernelRun> runs;
  for (const int n : {1, 64, 1024, 16384}) runs.push_back(run_batched(program, n));

  Table t({"kernel", "steps/sec (1 core)", "vs batched(1)", "bytes/monitor", "dense bytes"});
  const double base = runs.front().steps_per_sec;
  for (const auto& r : runs) {
    t.row({r.kernel, fmt(r.steps_per_sec, 0), fmt(r.steps_per_sec / base, 2) + "x",
           fmt_int(static_cast<std::int64_t>(r.bytes_per_monitor)),
           fmt_int(static_cast<std::int64_t>(r.dense_bytes))});
  }
  t.print();
  std::printf("every kernel is single-threaded here: steps/sec IS steps/sec/core\n"
              "(hardware_concurrency=%u on this host). The batched rows share ONE\n"
              "immutable ModelProgram; their per-monitor cost is the dense-array row\n"
              "plus fixed cold headers — not a private table set per monitor.\n\n",
              hw);

  std::ofstream json("BENCH_exec.json");
  json << "{\n  \"experiment\": \"bench_exec\",\n";
  json << "  \"steps\": " << kSteps << ",\n";
  json << "  \"hardware_concurrency\": " << hw << ",\n";
  json << "  \"target_steps_per_sec_per_core\": 1000000,\n";
  json << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "    {\"kernel\": \"" << runs[i].kernel << "\""
         << ", \"steps_per_sec_per_core\": " << fmt(runs[i].steps_per_sec, 0)
         << ", \"bytes_per_monitor\": " << runs[i].bytes_per_monitor
         << ", \"dense_bytes_per_monitor\": " << runs[i].dense_bytes << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_exec.json (per-kernel steps/sec/core + bytes/monitor)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_BatchedDispatch(benchmark::State& state) {
  const auto program = sm::ModelProgram::compile(bench_model());
  sm::BatchExecutor batch(program);
  const auto id = batch.add_instance();
  batch.start(id, 0);
  const sm::SmEvent ev = sm::SmEvent::named("tick");
  rt::SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.dispatch(id, ev, ++now));
  }
}
BENCHMARK(BM_BatchedDispatch);

void BM_BatchedAdvanceAll1k(benchmark::State& state) {
  sm::StateMachineDef def("timed");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 10);
  def.add_timed(b, a, 10);
  const auto program = sm::ModelProgram::compile(def);
  sm::BatchExecutor batch(program);
  for (int i = 0; i < 1000; ++i) batch.start(batch.add_instance(), 0);
  rt::SimTime now = 0;
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(batch.advance_all(now));
  }
}
BENCHMARK(BM_BatchedAdvanceAll1k);

}  // namespace

TRADER_BENCH_MAIN(report)
