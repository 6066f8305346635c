// Tests for the timed hierarchical state machine engine: builder,
// StateMachine (a one-slot batch of the compiled program), the compiled
// executor (with a property suite against the reference interpreter's
// frozen verdicts), static checker and test scripts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/rng.hpp"
#include "statemachine/checker.hpp"
#include "statemachine/batch.hpp"
#include "statemachine/definition.hpp"
#include "statemachine/machine.hpp"
#include "statemachine/test_script.hpp"
#include "step_digest.hpp"

namespace sm = trader::statemachine;
namespace rt = trader::runtime;

namespace {

// A small traffic-light-ish machine used by several tests.
sm::StateMachineDef simple_machine() {
  sm::StateMachineDef def("simple");
  const auto red = def.add_state("Red");
  const auto green = def.add_state("Green");
  def.add_transition(red, green, "go");
  def.add_transition(green, red, "stop");
  return def;
}

}  // namespace

// ------------------------------------------------------------------- Builder

TEST(Definition, AddStateAssignsIdsAndPaths) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B", a);
  const auto c = def.add_state("C", b);
  EXPECT_EQ(def.path(c), "A.B.C");
  EXPECT_TRUE(def.is_ancestor(a, c));
  EXPECT_FALSE(def.is_ancestor(c, a));
  EXPECT_TRUE(def.is_ancestor(c, c));
}

TEST(Definition, FirstChildBecomesInitial) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B", a);
  def.add_state("C", a);
  EXPECT_EQ(def.state(a).initial_child, b);
}

TEST(Definition, SetInitialOverrides) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  def.add_state("B", a);
  const auto c = def.add_state("C", a);
  def.set_initial(a, c);
  EXPECT_EQ(def.state(a).initial_child, c);
}

TEST(Definition, SetInitialRejectsNonChild) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto x = def.add_state("X");
  EXPECT_THROW(def.set_initial(a, x), std::invalid_argument);
}

TEST(Definition, RejectsEmptyStateName) {
  sm::StateMachineDef def("m");
  EXPECT_THROW(def.add_state(""), std::invalid_argument);
}

TEST(Definition, RejectsInvalidStateIds) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  EXPECT_THROW(def.add_transition(a, 99, "e"), std::invalid_argument);
  EXPECT_THROW(def.on_entry(42, nullptr), std::invalid_argument);
}

TEST(Definition, RejectsEventlessAddTransition) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  EXPECT_THROW(def.add_transition(a, b, ""), std::invalid_argument);
}

TEST(Definition, RejectsNonPositiveTimedDelay) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  EXPECT_THROW(def.add_timed(a, b, 0), std::invalid_argument);
}

TEST(Definition, TopInitialMustBeTopLevel) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B", a);
  EXPECT_THROW(def.set_top_initial(b), std::invalid_argument);
}

TEST(Definition, FindStateByNameOrPath) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B", a);
  EXPECT_EQ(def.find_state("B"), b);
  EXPECT_EQ(def.find_state("A.B"), b);
  EXPECT_EQ(def.find_state("missing"), sm::kNoState);
}

// ------------------------------------------------------------------- Machine

TEST(Machine, StartEntersInitialConfiguration) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  EXPECT_FALSE(m.started());
  m.start(0);
  EXPECT_TRUE(m.started());
  EXPECT_TRUE(m.in("Red"));
  EXPECT_EQ(m.active_leaf(), "Red");
}

TEST(Machine, DispatchFiresMatchingTransition) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_TRUE(m.dispatch(sm::SmEvent::named("go"), 10));
  EXPECT_TRUE(m.in("Green"));
  EXPECT_FALSE(m.dispatch(sm::SmEvent::named("go"), 20));  // no transition
  EXPECT_TRUE(m.in("Green"));
}

TEST(Machine, HierarchicalEntryDrillsToLeaf) {
  sm::StateMachineDef def("m");
  const auto off = def.add_state("Off");
  const auto on = def.add_state("On");
  def.add_state("A", on);
  def.add_transition(off, on, "power");
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("power"), 1);
  EXPECT_TRUE(m.in("On"));
  EXPECT_TRUE(m.in("A"));
  EXPECT_EQ(m.active_leaf(), "On.A");
}

TEST(Machine, EntryExitActionOrder) {
  sm::StateMachineDef def("m");
  std::vector<std::string> trace;
  auto log = [&trace](const std::string& s) {
    return [&trace, s](sm::ActionEnv&) { trace.push_back(s); };
  };
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto b1 = def.add_state("B1", b);
  def.on_entry(a, log("+A"));
  def.on_exit(a, log("-A"));
  def.on_entry(b, log("+B"));
  def.on_entry(b1, log("+B1"));
  def.add_transition(a, b, "e", nullptr, log("t"));
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_EQ(trace, (std::vector<std::string>{"+A", "-A", "t", "+B", "+B1"}));
}

TEST(Machine, InnermostHandlerWins) {
  sm::StateMachineDef def("m");
  const auto top = def.add_state("Top");
  const auto inner = def.add_state("Inner", top);
  const auto other = def.add_state("Other");
  const auto sibling = def.add_state("Sibling", top);
  def.add_transition(top, other, "e");
  def.add_transition(inner, sibling, "e");  // innermost takes priority
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_TRUE(m.in("Sibling"));
}

TEST(Machine, GuardBlocksTransition) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_transition(a, b, "e",
                     [](const sm::Context& c, const sm::SmEvent&) { return c.get_bool("ok"); });
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_FALSE(m.dispatch(sm::SmEvent::named("e"), 1));
  m.vars().set_bool("ok", true);
  EXPECT_TRUE(m.dispatch(sm::SmEvent::named("e"), 2));
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, GuardedAlternativesPickFirstEnabled) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto c = def.add_state("C");
  def.add_transition(a, b, "e",
                     [](const sm::Context& ctx, const sm::SmEvent&) { return ctx.get_bool("x"); });
  def.add_transition(a, c, "e");
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_TRUE(m.in("C"));
  m.reset();
  m.start(0);
  m.vars().set_bool("x", true);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, InternalTransitionKeepsState) {
  sm::StateMachineDef def("m");
  int entries = 0;
  const auto a = def.add_state("A");
  def.on_entry(a, [&entries](sm::ActionEnv&) { ++entries; });
  def.add_internal(a, "e", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
  });
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  m.dispatch(sm::SmEvent::named("e"), 2);
  EXPECT_EQ(m.vars().get_int("n"), 2);
  EXPECT_EQ(entries, 1);  // never re-entered
}

TEST(Machine, SelfTransitionReExecutesEntry) {
  sm::StateMachineDef def("m");
  int entries = 0;
  const auto a = def.add_state("A");
  def.on_entry(a, [&entries](sm::ActionEnv&) { ++entries; });
  def.add_transition(a, a, "e");
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_EQ(entries, 2);
}

TEST(Machine, CompletionTransitionChains) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto c = def.add_state("C");
  def.add_transition(a, b, "e");
  def.add_completion(b, c);  // fires immediately after entering B
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("e"), 1);
  EXPECT_TRUE(m.in("C"));
}

TEST(Machine, GuardedCompletionWaitsForCondition) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_completion(a, b,
                     [](const sm::Context& c, const sm::SmEvent&) { return c.get_bool("go"); });
  def.add_internal(a, "set", nullptr,
                   [](sm::ActionEnv& env) { env.vars.set_bool("go", true); });
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_TRUE(m.in("A"));
  m.dispatch(sm::SmEvent::named("set"), 1);  // internal action then completion
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, CompletionLivelockIsDetectedNotInfinite) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_completion(a, b);
  def.add_completion(b, a);
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_TRUE(m.livelock_detected());
}

TEST(Machine, WithoutHistoryReentersInitial) {
  sm::StateMachineDef def("m");
  const auto on = def.add_state("On");
  def.add_state("A", on);
  const auto bb = def.add_state("B", on);
  const auto off = def.add_state("Off");
  def.add_transition(def.find_state("A"), bb, "next");
  def.add_transition(on, off, "off");
  def.add_transition(off, on, "on");
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("next"), 1);
  m.dispatch(sm::SmEvent::named("off"), 2);
  m.dispatch(sm::SmEvent::named("on"), 3);
  EXPECT_TRUE(m.in("A"));
}

TEST(Machine, TimedTransitionFiresAfterDwell) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 1000);
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_EQ(m.advance_time(999), 0);
  EXPECT_TRUE(m.in("A"));
  EXPECT_EQ(m.advance_time(1000), 1);
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, NextDeadlineReportsEarliest) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 500);
  def.add_timed(a, b, 300);
  sm::StateMachine m(def);
  m.start(100);
  EXPECT_EQ(m.next_deadline(), 400);
}

TEST(Machine, NoDeadlineWithoutTimedTransitions) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_EQ(m.next_deadline(), -1);
}

TEST(Machine, TimedChainFiresInDueOrder) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto c = def.add_state("C");
  def.add_timed(a, b, 100);
  def.add_timed(b, c, 100);
  sm::StateMachine m(def);
  m.start(0);
  // One advance spanning both deadlines must fire both, at their
  // semantic instants (100 and 200).
  EXPECT_EQ(m.advance_time(250), 2);
  EXPECT_TRUE(m.in("C"));
}

TEST(Machine, SelfTransitionResetsDwellClock) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 1000);
  def.add_transition(a, a, "poke");
  sm::StateMachine m(def);
  m.start(0);
  m.advance_time(800);
  m.dispatch(sm::SmEvent::named("poke"), 800);  // re-enter A, reset clock
  EXPECT_EQ(m.advance_time(1500), 0);           // 800+1000 > 1500 ⇒ nothing
  EXPECT_TRUE(m.in("A"));
  EXPECT_EQ(m.advance_time(1800), 1);
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, TimedGuardEvaluatedAtFireTime) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 100,
                [](const sm::Context& c, const sm::SmEvent&) { return c.get_bool("armed"); });
  sm::StateMachine m(def);
  m.start(0);
  EXPECT_EQ(m.advance_time(500), 0);  // guard false: nothing fires
  m.vars().set_bool("armed", true);
  EXPECT_EQ(m.advance_time(500), 1);
  EXPECT_TRUE(m.in("B"));
}

TEST(Machine, EmitCollectsOutputs) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  def.on_entry(a, [](sm::ActionEnv& env) {
    env.emit("hello", {{"value", std::int64_t{1}}});
  });
  sm::StateMachine m(def);
  m.start(5);
  auto outs = m.drain_outputs();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].name, "hello");
  EXPECT_EQ(outs[0].time, 5);
  EXPECT_TRUE(m.drain_outputs().empty());  // drained
}

TEST(Machine, TransitionsFiredCounter) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("go"), 1);
  m.dispatch(sm::SmEvent::named("stop"), 2);
  EXPECT_EQ(m.transitions_fired(), 2u);
}

TEST(Machine, ResetClearsEverything) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  m.start(0);
  m.vars().set_int("x", 3);
  m.dispatch(sm::SmEvent::named("go"), 1);
  m.reset();
  EXPECT_FALSE(m.started());
  EXPECT_FALSE(m.vars().has("x"));
  EXPECT_EQ(m.transitions_fired(), 0u);
}

TEST(Machine, DispatchBeforeStartIsNoop) {
  auto def = simple_machine();
  sm::StateMachine m(def);
  EXPECT_FALSE(m.dispatch(sm::SmEvent::named("go"), 0));
}

TEST(Machine, EventParamsReachGuardsAndActions) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_transition(
      a, b, "set",
      [](const sm::Context&, const sm::SmEvent& ev) {
        auto it = ev.params.find("n");
        return it != ev.params.end() && std::get<std::int64_t>(it->second) > 5;
      },
      [](sm::ActionEnv& env) {
        env.vars.set("n", env.event.params.at("n"));
      });
  sm::StateMachine m(def);
  m.start(0);
  sm::SmEvent low{"set", {{"n", std::int64_t{3}}}};
  EXPECT_FALSE(m.dispatch(low, 1));
  sm::SmEvent high{"set", {{"n", std::int64_t{9}}}};
  EXPECT_TRUE(m.dispatch(high, 2));
  EXPECT_EQ(m.vars().get_int("n"), 9);
}

// ------------------------------------------------------------------- Context

TEST(Context, TypedAccessorsAndDefaults) {
  sm::Context c;
  EXPECT_EQ(c.get_int("x", 7), 7);
  c.set_int("x", 3);
  c.set_num("d", 2.5);
  c.set_bool("b", true);
  c.set_str("s", "v");
  EXPECT_EQ(c.get_int("x"), 3);
  EXPECT_DOUBLE_EQ(c.get_num("d"), 2.5);
  EXPECT_DOUBLE_EQ(c.get_num("x"), 3.0);  // widening
  EXPECT_TRUE(c.get_bool("b"));
  EXPECT_TRUE(c.get_bool("x"));  // nonzero int is truthy
  EXPECT_EQ(c.get_str("s"), "v");
  EXPECT_EQ(c.get_str("x", "no"), "no");
  EXPECT_TRUE(c.has("x"));
  c.clear();
  EXPECT_FALSE(c.has("x"));
}

// ------------------------------------------------------------------ Compiled

TEST(Compiled, LeafCountMatchesDefinition) {
  sm::StateMachineDef def("m");
  const auto on = def.add_state("On");
  def.add_state("A", on);
  def.add_state("B", on);
  def.add_state("Off");
  EXPECT_EQ(sm::ModelProgram::compile(def)->leaf_count(), 3u);  // A, B, Off
}

TEST(Compiled, BasicDispatchMatchesInterpreter) {
  sm::BatchExecutor batch(sm::ModelProgram::compile(simple_machine()));
  const auto id = batch.add_instance();
  batch.start(id, 0);
  EXPECT_TRUE(batch.in(id, "Red"));
  EXPECT_TRUE(batch.dispatch(id, sm::SmEvent::named("go"), 1));
  EXPECT_TRUE(batch.in(id, "Green"));
}

// Equivalence property: random hierarchical machines driven by random
// event sequences behave as the reference interpreter did on them: the
// engine must reproduce the digest recorded from it, seed by seed.
namespace {

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
      const auto kid = def->add_state("T" + std::to_string(t) + "K" + std::to_string(k), top);
      states.push_back(kid);
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
  // A couple of timed transitions.
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

// The interpreter's recorded digest for each seed (step_digest.hpp).
const char* interpreter_digest(std::uint64_t seed) {
  static const std::map<std::uint64_t, const char*> kPinned = {
      {1, "946579fd491bc0e7"},
      {2, "1742e7d4cb83ffd3"},
      {3, "73c3b8c81e6fd62f"},
      {4, "68aa47bb089c55ba"},
      {5, "7b33571257e170c8"},
      {6, "1fb4023e864cb7a3"},
      {7, "1e2cd3fbff3d1650"},
      {8, "0d5fc31e06103a77"},
      {9, "c69ec1e627fe26be"},
      {10, "e30ebe6b33b57261"},
      {11, "6d3cc683eafbda64"},
      {12, "ee54e8883c422be3"},
      {13, "2c7d66200a959a1d"},
      {14, "f6ee9fed521a09ab"},
      {15, "9ac049f3da378358"},
      {16, "f4e7aad90f816309"},
      {17, "367e39aa31e87ede"},
      {18, "d264231a5a48a7d2"},
      {19, "c7128fe256693957"},
      {20, "cc7bc782b271bd67"},
  };
  const auto it = kPinned.find(seed);
  return it == kPinned.end() ? "" : it->second;
}

}  // namespace

class ExecutorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorEquivalence, InterpreterAndCompiledAgree) {
  const std::uint64_t seed = GetParam();
  RandomMachine rm = make_random_machine(seed);
  sm::StateMachine m(*rm.def);
  sm::StepDigest digest;
  m.start(0);
  digest.fold(m, 0);

  rt::Rng rng(seed ^ 0xABCD);
  rt::SimTime now = 0;
  for (int step = 0; step < 200; ++step) {
    if (rng.bernoulli(0.3)) {
      now += rng.uniform_int(10, 300);
      digest.fold(m, m.advance_time(now));
    } else {
      const auto& name = rm.alphabet[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      digest.fold(m, m.dispatch(sm::SmEvent::named(name), now));
    }
  }
  EXPECT_EQ(digest.hex(), interpreter_digest(seed)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, ExecutorEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                           17, 18, 19, 20));

// -------------------------------------------------------------------- Checker

TEST(Checker, CleanMachineHasNoIssues) {
  auto def = simple_machine();
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  EXPECT_TRUE(report.clean()) << report.issues.size();
}

TEST(Checker, DetectsUnreachableState) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_state("Island");
  def.add_transition(a, b, "e");
  def.add_transition(b, a, "f");
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  EXPECT_TRUE(report.has(sm::IssueKind::kUnreachableState));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(Checker, ReachabilityFollowsInitialChain) {
  sm::StateMachineDef def("m");
  const auto top = def.add_state("Top");
  def.add_state("Kid", top);
  sm::ModelChecker checker;
  const auto reach = checker.reachable_states(def);
  EXPECT_EQ(reach.size(), 2u);
}

TEST(Checker, DetectsNondeterministicPair) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto c = def.add_state("C");
  def.add_transition(a, b, "e");
  def.add_transition(a, c, "e");  // competes, both unguarded
  def.add_transition(b, a, "x");
  def.add_transition(c, a, "x");
  sm::ModelChecker checker;
  EXPECT_TRUE(checker.check(def).has(sm::IssueKind::kNondeterministicChoice));
}

TEST(Checker, GuardedPairIsNotFlagged) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  const auto c = def.add_state("C");
  def.add_transition(a, b, "e",
                     [](const sm::Context&, const sm::SmEvent&) { return true; });
  def.add_transition(a, c, "e");
  def.add_transition(b, a, "x");
  def.add_transition(c, a, "x");
  sm::ModelChecker checker;
  EXPECT_FALSE(checker.check(def).has(sm::IssueKind::kNondeterministicChoice));
}

TEST(Checker, DetectsCompletionLivelockCycle) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_completion(a, b);
  def.add_completion(b, a);
  sm::ModelChecker checker;
  EXPECT_TRUE(checker.check(def).has(sm::IssueKind::kCompletionLivelock));
}

TEST(Checker, DetectsSinkState) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto sink = def.add_state("Sink");
  def.add_transition(a, sink, "e");
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  EXPECT_TRUE(report.has(sm::IssueKind::kSinkState));
}

TEST(Checker, AncestorHandlerPreventsSinkFlag) {
  sm::StateMachineDef def("m");
  const auto on = def.add_state("On");
  def.add_state("Leaf", on);
  const auto off = def.add_state("Off");
  def.add_transition(on, off, "off");
  def.add_transition(off, on, "on");
  sm::ModelChecker checker;
  EXPECT_FALSE(checker.check(def).has(sm::IssueKind::kSinkState));
}

TEST(Checker, DetectsFullyShadowedTransition) {
  sm::StateMachineDef def("m");
  const auto top = def.add_state("Top");
  const auto leaf = def.add_state("Leaf", top);
  const auto other = def.add_state("Other");
  def.add_transition(top, other, "e");   // shadowed from every leaf
  def.add_transition(leaf, leaf, "e");   // closer unguarded handler
  def.add_transition(other, top, "x");
  sm::ModelChecker checker;
  EXPECT_TRUE(checker.check(def).has(sm::IssueKind::kShadowedTransition));
}

TEST(Checker, IssueKindNames) {
  EXPECT_STREQ(sm::to_string(sm::IssueKind::kUnreachableState), "unreachable-state");
  EXPECT_STREQ(sm::to_string(sm::IssueKind::kCompletionLivelock), "completion-livelock");
}

// ----------------------------------------------------------------- TestScript

TEST(TestScript, PassingScenario) {
  auto def = simple_machine();
  sm::TestScript script("basic");
  script.inject("go").expect_state("Green").inject("stop").expect_state("Red");
  const auto result = script.run(def);
  EXPECT_TRUE(result.passed());
}

TEST(TestScript, FailureIsReportedWithStepIndex) {
  auto def = simple_machine();
  sm::TestScript script("wrong");
  script.inject("go").expect_state("Red");
  const auto result = script.run(def);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].step_index, 1u);
}

TEST(TestScript, AdvanceDrivesTimedTransitions) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_timed(a, b, 1000);
  sm::TestScript script("timed");
  script.advance(999).expect_state("A").advance(1).expect_state("B");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TestScript, ExpectVarAndOutput) {
  sm::StateMachineDef def("m");
  const auto a = def.add_state("A");
  def.add_internal(a, "e", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("x", 5);
    env.emit("ping", {});
  });
  sm::TestScript script("vars");
  script.inject("e").expect_var("x", std::int64_t{5}).expect_output("ping");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TestScript, ExpectNotState) {
  auto def = simple_machine();
  sm::TestScript script("not");
  script.expect_not_state("Green").inject("go").expect_not_state("Red");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TestScript, MissingVarFails) {
  auto def = simple_machine();
  sm::TestScript script("missing");
  script.expect_var("nope", std::int64_t{1});
  EXPECT_FALSE(script.run(def).passed());
}
