// Executor property tests: the compiled ModelProgram on a BatchExecutor
// — the one engine in src/ — over seeded random machines, the TV,
// printer and media-player spec models and seeded event streams, plus
// arena growth/reuse and cross-thread program sharing.
//
// The engine replaced a reference interpreter it was held to step for
// step. That interpreter's verdicts on these streams are frozen as
// digests (step_digest.hpp) which the engine must reproduce; one-slot
// and shared-slot twins are still compared live after every step. Run
// under ASan (arena recycling) and TSan (shared immutable program) by
// the `exec` stage of scripts/check.sh.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_program.hpp"
#include "core/monitor_builder.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"
#include "mediaplayer/player.hpp"
#include "printer/printer.hpp"
#include "statemachine/batch.hpp"
#include "statemachine/explorer.hpp"
#include "statemachine/machine.hpp"
#include "statemachine/program.hpp"
#include "step_digest.hpp"
#include "tv/spec_model.hpp"

namespace sm = trader::statemachine;
namespace rt = trader::runtime;
namespace core = trader::core;

namespace {

// ---------------------------------------------------- random machines
//
// Same family as statemachine_test's equivalence suite: 2-4 top states
// with 0-3 children, random guarded/counting transitions over a 4-event
// alphabet, a few timed transitions.

struct RandomMachine {
  std::unique_ptr<sm::StateMachineDef> def;
  std::vector<std::string> alphabet;
};

RandomMachine make_random_machine(std::uint64_t seed) {
  rt::Rng rng(seed);
  auto def = std::make_unique<sm::StateMachineDef>("rand");
  std::vector<sm::StateId> states;
  const int tops = static_cast<int>(rng.uniform_int(2, 4));
  for (int t = 0; t < tops; ++t) {
    const auto top = def->add_state("T" + std::to_string(t));
    states.push_back(top);
    const int kids = static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < kids; ++k) {
      states.push_back(def->add_state("T" + std::to_string(t) + "K" + std::to_string(k), top));
    }
  }
  std::vector<std::string> alphabet = {"a", "b", "c", "d"};
  const int transitions = static_cast<int>(rng.uniform_int(4, 14));
  for (int i = 0; i < transitions; ++i) {
    const auto src = states[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(states.size() - 1)))];
    const auto dst = states[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(states.size() - 1)))];
    const auto& ev = alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    sm::Guard guard = nullptr;
    if (rng.bernoulli(0.3)) {
      guard = [](const sm::Context& c, const sm::SmEvent&) { return c.get_int("ctr") % 2 == 0; };
    }
    sm::Action action = [](sm::ActionEnv& env) {
      env.vars.set_int("ctr", env.vars.get_int("ctr") + 1);
      env.emit("out", {{"value", env.vars.get_int("ctr")}});
    };
    def->add_transition(src, dst, ev, guard, action);
  }
  const int timed = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < timed; ++i) {
    const auto src = states[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(states.size() - 1)))];
    const auto dst = states[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(states.size() - 1)))];
    def->add_timed(src, dst, rng.uniform_int(50, 500));
  }
  return RandomMachine{std::move(def), std::move(alphabet)};
}

// The interpreter's recorded digest for each BatchedEquivalence seed
// (step_digest.hpp).
const char* batched_digest(std::uint64_t seed) {
  static const std::map<std::uint64_t, const char*> kPinned = {
      {101, "76f15fbb3e81350f"},
      {102, "e85a156bae2abf22"},
      {103, "e8d1cef414c3b28a"},
      {104, "2eb3815318ebc6f1"},
      {105, "85e8a38a6a85218b"},
      {106, "89b9001d50acc357"},
      {107, "ccc5786b69e0d993"},
      {108, "7592e869e8482a31"},
      {109, "b8c35a1d467707b5"},
      {110, "a1f2f1362b24ada9"},
      {111, "8b169ba869206679"},
      {112, "e829056faee01622"},
      {113, "b00c0d102bef3c27"},
      {114, "1d4f9417349aae86"},
      {115, "4d185aa237ef7233"},
      {116, "a3161088ff4c46e0"},
      {117, "42e3b80e0bab2449"},
      {118, "55c1d5be225fd218"},
      {119, "cd6ab3781778ff3b"},
      {120, "cf74fc15c9e966eb"},
  };
  const auto it = kPinned.find(seed);
  return it == kPinned.end() ? "" : it->second;
}

}  // namespace

// ------------------------------------- frozen interpreter verdicts

class BatchedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// A one-slot StateMachine (the standalone path) and a slot of a shared
// BatchExecutor must agree step for step on a random machine and stream
// — state, dispatch result, fired counter, deadline, outputs — and
// reproduce the digest the reference interpreter left for that seed.
TEST_P(BatchedEquivalence, InterpreterCompiledAndBatchSlotAgree) {
  const std::uint64_t seed = GetParam();
  RandomMachine rm = make_random_machine(seed);

  sm::StateMachine solo(*rm.def);
  // The batch slot under test lives AMONG other instances: two
  // bystanders stepped on a different stream guard against cross-slot
  // state bleed in the dense arrays.
  sm::BatchExecutor batch(sm::ModelProgram::compile(*rm.def));
  const auto bi = batch.add_instance();
  const auto by0 = batch.add_instance();
  const auto by1 = batch.add_instance();

  solo.start(0);
  batch.start(bi, 0);
  batch.start(by0, 0);
  batch.start(by1, 0);
  sm::StepDigest ds;
  sm::StepDigest db;
  ASSERT_EQ(ds.fold(solo, 0), db.fold(batch, bi, 0));

  rt::Rng rng(seed ^ 0xABCD);
  rt::Rng noise(seed ^ 0x5150);
  rt::SimTime now = 0;
  for (int step = 0; step < 200; ++step) {
    long rs = 0;
    long rb = 0;
    if (rng.bernoulli(0.3)) {
      now += rng.uniform_int(10, 300);
      rs = solo.advance_time(now);
      rb = batch.advance_time(bi, now);
    } else {
      const auto& name = rm.alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      rs = solo.dispatch(sm::SmEvent::named(name), now);
      rb = batch.dispatch(bi, sm::SmEvent::named(name), now);
    }
    // Bystanders walk their own independent stream.
    batch.dispatch(by0, sm::SmEvent::named(rm.alphabet[static_cast<std::size_t>(
                            noise.uniform_int(0, 3))]),
                   now);
    batch.advance_time(by1, now);

    ASSERT_EQ(ds.fold(solo, rs), db.fold(batch, bi, rb)) << "step " << step;
  }
  EXPECT_EQ(db.hex(), batched_digest(seed)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, BatchedEquivalence,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111,
                                           112, 113, 114, 115, 116, 117, 118, 119, 120));

// The spec models the examples and monitors run, driven by seeded
// streams over their own event alphabets plus time advances long enough
// to fire their timeouts. Everything a monitor can see after every step
// — leaf, every variable, every output field, fired count, deadline and
// the livelock flag — must fold to the interpreter's digest for that
// seed.
namespace {

using SeedDigests = std::array<const char*, 6>;

void expect_program_matches_interpreter(const sm::StateMachineDef& def,
                                        const SeedDigests& pinned) {
  const auto alphabet = sm::event_alphabet(def);
  ASSERT_FALSE(alphabet.empty());
  const auto last = static_cast<std::int64_t>(alphabet.size() - 1);

  for (std::size_t seed = 1; seed <= pinned.size(); ++seed) {
    sm::StateMachine m(def);
    sm::StepDigest digest;
    m.start(0);
    digest.fold(m, 0);
    rt::Rng rng(seed);
    rt::SimTime now = 0;
    for (int step = 0; step < 400; ++step) {
      if (rng.bernoulli(0.25)) {
        now += rng.uniform_int(1, rt::sec(3));
        digest.fold(m, m.advance_time(now));
      } else {
        const auto ev = sm::SmEvent::named(alphabet[static_cast<std::size_t>(
            rng.uniform_int(0, last))]);
        digest.fold(m, m.dispatch(ev, now));
      }
    }
    EXPECT_EQ(digest.hex(), pinned[seed - 1]) << "seed " << seed;
  }
}

}  // namespace

TEST(SpecModelEquivalence, TvInterpreterAndProgramAgree) {
  expect_program_matches_interpreter(trader::tv::build_tv_spec_model(), {
      "e6bc6cea6321b5a2", "c4f5fa5cd41eae8b", "847628290af727ea",
      "df8ccac3db98e2ea", "23d3c5ab763de7ce", "247a92ff0da5ef2c"});
}

TEST(SpecModelEquivalence, PrinterInterpreterAndProgramAgree) {
  expect_program_matches_interpreter(trader::printer::build_printer_spec_model(), {
      "e951bbfcf59fe539", "c018a3b372f94bf6", "b9495be079142e2a",
      "b304f018af8c9ab6", "35703d6b94f1c497", "4b3a1c462527d71f"});
}

TEST(SpecModelEquivalence, MediaPlayerInterpreterAndProgramAgree) {
  expect_program_matches_interpreter(trader::mediaplayer::build_player_spec_model(), {
      "4a43ff13bafb69c5", "a2deed1031776634", "b09d9417d896a436",
      "5ccec57f37337f06", "ca179317ce24c70c", "0d4634e9c31e3a75"});
}

// A whole population in ONE batch, each instance twinned with its own
// one-slot StateMachine on its own stream: the strongest cross-instance
// isolation check the dense arrays get. The population's lines and the
// closing advance_all count fold to the interpreter's digest.
TEST(BatchExecutor, PopulationMatchesPerInstanceInterpreters) {
  RandomMachine rm = make_random_machine(424242);
  sm::BatchExecutor batch(sm::ModelProgram::compile(*rm.def));

  constexpr int kN = 64;
  std::vector<sm::BatchExecutor::InstanceId> ids;
  std::vector<std::unique_ptr<sm::StateMachine>> twins;
  std::vector<rt::Rng> streams;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(batch.add_instance());
    twins.push_back(std::make_unique<sm::StateMachine>(*rm.def));
    streams.emplace_back(0x9000u + static_cast<std::uint64_t>(i));
    batch.start(ids.back(), 0);
    twins.back()->start(0);
  }

  sm::StepDigest dt;
  sm::StepDigest db;
  rt::SimTime now = 0;
  for (int step = 0; step < 60; ++step) {
    now += 25;
    for (int i = 0; i < kN; ++i) {
      auto& rng = streams[static_cast<std::size_t>(i)];
      auto& twin = *twins[static_cast<std::size_t>(i)];
      const auto id = ids[static_cast<std::size_t>(i)];
      long ret_twin = 0;
      long ret_batch = 0;
      if (rng.bernoulli(0.4)) {
        ret_twin = twin.advance_time(now);
        ret_batch = batch.advance_time(id, now);
      } else {
        const auto& name = rm.alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        ret_twin = twin.dispatch(sm::SmEvent::named(name), now);
        ret_batch = batch.dispatch(id, sm::SmEvent::named(name), now);
      }
      ASSERT_EQ(dt.fold(twin, ret_twin), db.fold(batch, id, ret_batch)) << i << "@" << step;
    }
  }
  // advance_all == per-instance advance_time over the same population.
  int per_instance = 0;
  for (auto& twin : twins) per_instance += twin->advance_time(now + 1000);
  const int all = batch.advance_all(now + 1000);
  EXPECT_EQ(all, per_instance);
  dt.fold_line("advance_all=" + std::to_string(per_instance));
  db.fold_line("advance_all=" + std::to_string(all));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(dt.fold(*twins[static_cast<std::size_t>(i)], 0),
              db.fold(batch, ids[static_cast<std::size_t>(i)], 0))
        << i;
  }
  EXPECT_EQ(db.hex(), "56615dd7d59dd337");
}

// ------------------------------------------------- arena growth/reuse

// Released slots come back through the free list with scrubbed state;
// the arena does not grow under churn. ASan holds this to memory
// hygiene in the check.sh exec stage.
TEST(BatchExecutor, SlotRecyclingScrubsStateAndBoundsGrowth) {
  RandomMachine rm = make_random_machine(7);
  const auto program = sm::ModelProgram::compile(*rm.def);
  sm::BatchExecutor batch(program);

  const auto a = batch.add_instance();
  batch.start(a, 0);
  for (int i = 0; i < 20; ++i) batch.dispatch(a, sm::SmEvent::named("a"), 10 * i);
  batch.vars(a).set_int("junk", 99);
  const auto fired_before = batch.transitions_fired(a);
  EXPECT_EQ(batch.slot_count(), 1u);

  batch.release(a);
  EXPECT_EQ(batch.live_count(), 0u);
  EXPECT_EQ(batch.free_count(), 1u);

  // Churn: claim/release in a loop; slot_count must not move.
  for (int round = 0; round < 100; ++round) {
    const auto r = batch.add_instance();
    EXPECT_EQ(r, a) << "free list should recycle the single slot";
    EXPECT_FALSE(batch.started(r));
    EXPECT_EQ(batch.transitions_fired(r), 0u);
    EXPECT_FALSE(batch.vars(r).has("junk"));
    EXPECT_TRUE(batch.drain_outputs(r).empty());
    EXPECT_FALSE(batch.livelock_detected(r));
    batch.start(r, 0);
    batch.dispatch(r, sm::SmEvent::named("b"), 5);
    batch.release(r);
  }
  EXPECT_EQ(batch.slot_count(), 1u);
  (void)fired_before;
}

// Context& handed out by vars() must survive arena growth — actions
// hold such a reference while other monitors join the batch.
TEST(BatchExecutor, VarsReferencesSurviveGrowth) {
  RandomMachine rm = make_random_machine(8);
  const auto program = sm::ModelProgram::compile(*rm.def);
  sm::BatchExecutor batch(program);

  const auto first = batch.add_instance();
  batch.start(first, 0);
  sm::Context& held = batch.vars(first);
  held.set_int("pinned", 1);

  std::vector<sm::BatchExecutor::InstanceId> rest;
  for (int i = 0; i < 500; ++i) {
    rest.push_back(batch.add_instance());
    batch.start(rest.back(), 0);
  }
  held.set_int("pinned", held.get_int("pinned") + 1);  // write through old reference
  EXPECT_EQ(batch.vars(first).get_int("pinned"), 2);
  EXPECT_GE(batch.slot_count(), 501u);
}

// ModelArena: one batch per program, instances recycled through it, and
// the ModelInstance facade keeps the batch alive regardless of
// destruction order.
TEST(ModelArena, OneBatchPerProgramAndChurnReuse) {
  RandomMachine rm = make_random_machine(9);
  const auto p1 = core::compile_model(*rm.def);
  RandomMachine rm2 = make_random_machine(10);
  const auto p2 = core::compile_model(*rm2.def);

  auto arena = std::make_shared<core::ModelArena>();
  std::vector<std::unique_ptr<core::ModelInstance>> pop;
  for (int i = 0; i < 10; ++i) pop.push_back(arena->make_instance(p1));
  for (int i = 0; i < 5; ++i) pop.push_back(arena->make_instance(p2));
  EXPECT_EQ(arena->batch_count(), 2u);
  EXPECT_EQ(arena->live_instances(), 15u);
  EXPECT_EQ(arena->slot_count(), 15u);
  EXPECT_GT(arena->approx_bytes(), 0u);

  pop.clear();  // release every slot
  EXPECT_EQ(arena->live_instances(), 0u);
  EXPECT_EQ(arena->slot_count(), 15u);  // rows kept for reuse
  for (int i = 0; i < 10; ++i) pop.push_back(arena->make_instance(p1));
  EXPECT_EQ(arena->slot_count(), 15u);  // churn did not grow the arena

  // An instance may outlive the arena map entry's other users.
  auto survivor = arena->make_instance(p2);
  pop.clear();
  arena.reset();
  survivor->start(0);
  EXPECT_FALSE(survivor->state_name().empty());
}

// ------------------------------------------- shared program, N threads

// One immutable ModelProgram feeding per-thread batches — the
// ShardedFleet sharing pattern. TSan (check.sh exec stage) watches for
// races on the shared tables.
TEST(BatchExecutor, SharedProgramAcrossThreadsIsRaceFree) {
  RandomMachine rm = make_random_machine(11);
  const auto program = sm::ModelProgram::compile(*rm.def);

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> fired(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &program, &rm, &fired]() {
      sm::BatchExecutor batch(program);
      rt::Rng rng(0xF00 + static_cast<std::uint64_t>(t));
      std::vector<sm::BatchExecutor::InstanceId> ids;
      for (int i = 0; i < 32; ++i) {
        ids.push_back(batch.add_instance());
        batch.start(ids.back(), 0);
      }
      rt::SimTime now = 0;
      std::uint64_t total = 0;
      for (int step = 0; step < 400; ++step) {
        now += 20;
        const auto id = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size() - 1)))];
        const auto& name = rm.alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        batch.dispatch(id, sm::SmEvent::named(name), now);
        total += static_cast<std::uint64_t>(batch.advance_all(now));
      }
      for (const auto id : ids) total += batch.transitions_fired(id);
      fired[static_cast<std::size_t>(t)] = total;
    });
  }
  for (auto& w : workers) w.join();
  // Identical seeds per thread index would differ; just require work happened.
  for (const auto f : fired) EXPECT_GT(f, 0u);
}

// ------------------------------------------- monitor-level equivalence

// The batch-of-1 path behind MonitorBuilder::with_program and an
// arena-backed instance must be the same model as far as a monitor can
// tell.
TEST(MonitorBuilder, PrivateBatchOfOneMatchesArenaInstance) {
  RandomMachine rm = make_random_machine(12);
  const auto program = core::compile_model(*rm.def);

  rt::Scheduler sched_a;
  rt::EventBus bus_a;
  auto arena = std::make_shared<core::ModelArena>();
  core::MonitorBuilder ba;
  ba.with_program(program).arena(arena);
  auto arena_monitor = ba.build(sched_a, bus_a);

  rt::Scheduler sched_b;
  rt::EventBus bus_b;
  core::MonitorBuilder bb;
  bb.with_program(program);  // no arena: private batch of 1
  auto solo_monitor = bb.build(sched_b, bus_b);

  arena_monitor->start();
  solo_monitor->start();
  EXPECT_EQ(arena->batch_count(), 1u);
  EXPECT_EQ(arena->live_instances(), 1u);

  rt::Rng rng(0xBEEF);
  rt::SimTime now = 0;
  for (int step = 0; step < 100; ++step) {
    now += 10;
    const auto& name = rm.alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    arena_monitor->executor().on_input(sm::SmEvent::named(name), now);
    solo_monitor->executor().on_input(sm::SmEvent::named(name), now);
    sched_a.run_until(now);
    sched_b.run_until(now);
    ASSERT_EQ(arena_monitor->executor().model_state(), solo_monitor->executor().model_state())
        << "step " << step;
  }
}
