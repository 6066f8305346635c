// Validation of the TV specification model (§4.2) and model-to-model
// experiments (§5): the spec model and the independently written
// TvControl/TvSystem must agree on user-perceived behaviour in
// fault-free runs.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "faults/injector.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/checker.hpp"
#include "statemachine/program.hpp"
#include "statemachine/machine.hpp"
#include "statemachine/test_script.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace sm = trader::statemachine;
namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace flt = trader::faults;

namespace {

// Track the latest value per observable emitted by a machine.
class ExpectedTable {
 public:
  void absorb(std::vector<sm::ModelOutput> outs) {
    for (auto& o : outs) {
      auto it = o.fields.find("value");
      if (it != o.fields.end()) table_[o.name] = it->second;
    }
  }
  const rt::Value* get(const std::string& name) const {
    auto it = table_.find(name);
    return it != table_.end() ? &it->second : nullptr;
  }

 private:
  std::map<std::string, rt::Value> table_;
};

}  // namespace

TEST(TvSpecModel, PassesStaticChecks) {
  auto def = tv::build_tv_spec_model();
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  for (const auto& issue : report.issues) {
    ADD_FAILURE() << sm::to_string(issue.kind) << " at " << issue.subject << ": "
                  << issue.message;
  }
  EXPECT_TRUE(report.clean());
}

TEST(TvSpecModel, CompilesToFlatTables) {
  auto def = tv::build_tv_spec_model();
  EXPECT_EQ(sm::ModelProgram::compile(def)->leaf_count(), 5u);  // Off, Video, Dual, Teletext, Menu
}

TEST(TvSpecModel, PowerCycleScript) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("power");
  script.expect_state("Off")
      .expect_output("powered")
      .inject("power")
      .expect_state("On.Video")
      .inject("power")
      .expect_state("Off");
  const auto result = script.run(def);
  for (const auto& f : result.failures) ADD_FAILURE() << "step " << f.step_index << ": " << f.message;
  EXPECT_TRUE(result.passed());
}

TEST(TvSpecModel, VolumeAndMuteScript) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("volume");
  script.inject("power")
      .inject("volume_up")
      .expect_var("volume", std::int64_t{35})
      .inject("mute")
      .expect_var("muted", true)
      .inject("volume_up")  // unmutes
      .expect_var("muted", false)
      .expect_var("volume", std::int64_t{40});
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, ScreenInteractionScript) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("screens");
  script.inject("power")
      .inject("teletext")
      .expect_state("On.Teletext")
      .inject("dual_screen")
      .expect_state("On.Dual")
      .inject("teletext")
      .expect_state("On.Teletext")
      .inject("back")
      .expect_state("On.Video")
      .inject("menu")
      .expect_state("On.Menu")
      .inject("teletext")  // swallowed by the menu
      .expect_state("On.Menu")
      .inject("menu")
      .expect_state("On.Video");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, DigitEntryCommitsTwoDigits) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("digits");
  script.inject("power").inject("digit_1").inject("digit_7").expect_var("channel",
                                                                        std::int64_t{17});
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, SingleDigitCommitsAfterTimeout) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("digit-timeout");
  script.inject("power")
      .inject("digit_5")
      .expect_var("channel", std::int64_t{1})
      .advance(rt::msec(1500))
      .expect_var("channel", std::int64_t{5});
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, DigitTimeoutRestartsPerDigit) {
  auto def = tv::build_tv_spec_model();
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("power"), 0);
  m.dispatch(sm::SmEvent::named("digit_2"), 0);
  m.advance_time(rt::msec(1400));  // not yet
  EXPECT_EQ(m.vars().get_int("channel", 1), 1);
  // A second digit commits 2x as a two-digit number immediately.
  m.dispatch(sm::SmEvent::named("digit_9"), rt::msec(1400));
  EXPECT_EQ(m.vars().get_int("channel", 1), 29);
}

TEST(TvSpecModel, ChildLockBlocksAdultTargets) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("lock");
  script.inject("power")
      .inject("child_lock")
      .inject("digit_3")
      .inject("digit_5")
      .expect_var("channel", std::int64_t{1})  // blocked
      .inject("digit_1")
      .inject("digit_2")
      .expect_var("channel", std::int64_t{12});
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, TeletextSwallowsDigits) {
  auto def = tv::build_tv_spec_model();
  sm::TestScript script("ttx-digits");
  script.inject("power")
      .inject("teletext")
      .inject("digit_2")
      .inject("digit_3")
      .expect_var("channel", std::int64_t{1});  // pages, not channels
  EXPECT_TRUE(script.run(def).passed());
}

TEST(TvSpecModel, ZapWrapsAtLineupEdges) {
  tv::TvSpecConfig cfg;
  cfg.channel_count = 5;
  auto def = tv::build_tv_spec_model(cfg);
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("power"), 0);
  m.dispatch(sm::SmEvent::named("channel_down"), 1);
  EXPECT_EQ(m.vars().get_int("channel"), 5);
  m.dispatch(sm::SmEvent::named("channel_up"), 2);
  EXPECT_EQ(m.vars().get_int("channel"), 1);
}

// ----------------------------------------------------- model-to-model (E1)

namespace {

// Drive the spec model and the real TV in lockstep (no transport
// latency, no faults) and compare observables after each settling
// period. This is the §5 "model-to-model experiments" validation.
class LockstepHarness {
 public:
  LockstepHarness()
      : injector_(rt::Rng(123)),
        set_(sched_, bus_, injector_),
        def_(tv::build_tv_spec_model()),
        model_(def_) {
    set_.start();
    model_.start(0);
    expected_.absorb(model_.drain_outputs());
  }

  void press(tv::Key key) {
    set_.press(key);
    model_.advance_time(sched_.now());
    model_.dispatch(sm::SmEvent::named(tv::to_string(key)), sched_.now());
    expected_.absorb(model_.drain_outputs());
  }

  void settle(rt::SimDuration d = rt::msec(100)) {
    sched_.run_for(d);
    model_.advance_time(sched_.now());
    expected_.absorb(model_.drain_outputs());
  }

  // Compare the partial-model observables; returns mismatch description
  // or empty string.
  std::string compare() const {
    struct Pair {
      const char* name;
      rt::Value actual;
    };
    const std::vector<Pair> pairs = {
        {"powered", rt::Value{set_.control().powered()}},
        {"screen_state", rt::Value{set_.screen_output()}},
        {"sound_level", rt::Value{std::int64_t{set_.sound_output()}}},
        {"channel", rt::Value{std::int64_t{set_.displayed_channel()}}},
        {"source", rt::Value{std::string(tv::to_string(set_.av_switch().source()))}},
    };
    for (const auto& p : pairs) {
      const rt::Value* exp = expected_.get(p.name);
      if (exp == nullptr) continue;  // model never spoke about it yet
      if (rt::deviation(*exp, p.actual) > 0.0) {
        return std::string(p.name) + ": expected " + rt::to_string(*exp) + ", actual " +
               rt::to_string(p.actual);
      }
    }
    return {};
  }

  rt::Scheduler sched_;
  rt::EventBus bus_;
  flt::FaultInjector injector_;
  tv::TvSystem set_;
  sm::StateMachineDef def_;
  sm::StateMachine model_;
  ExpectedTable expected_;
};

}  // namespace

TEST(ModelToModel, AgreesOnScriptedScenario) {
  LockstepHarness h;
  const std::vector<tv::Key> scenario = {
      tv::Key::kPower,     tv::Key::kVolumeUp,   tv::Key::kVolumeUp, tv::Key::kMute,
      tv::Key::kVolumeUp,  tv::Key::kChannelUp,  tv::Key::kDigit1,   tv::Key::kDigit7,
      tv::Key::kTeletext,  tv::Key::kChannelUp,  tv::Key::kTeletext, tv::Key::kDualScreen,
      tv::Key::kMenu,      tv::Key::kVolumeDown, tv::Key::kMenu,     tv::Key::kBack,
      tv::Key::kChannelDown, tv::Key::kPower,
  };
  for (const auto key : scenario) {
    h.press(key);
    h.settle(rt::msec(200));
    const std::string mismatch = h.compare();
    EXPECT_TRUE(mismatch.empty()) << "after key " << tv::to_string(key) << ": " << mismatch;
  }
}

class ModelToModelRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelToModelRandom, AgreesOnRandomScenarios) {
  LockstepHarness h;
  rt::Rng rng(GetParam());
  // Keys the partial model covers (sleep/swivel excluded by design; they
  // are modeled as no-ops but their real effects are outside the model's
  // observables anyway).
  const std::vector<tv::Key> alphabet = {
      tv::Key::kPower,    tv::Key::kVolumeUp,   tv::Key::kVolumeDown, tv::Key::kMute,
      tv::Key::kChannelUp, tv::Key::kChannelDown, tv::Key::kTeletext, tv::Key::kDualScreen,
      tv::Key::kMenu,     tv::Key::kBack,       tv::Key::kDigit1,    tv::Key::kDigit2,
      tv::Key::kDigit3,   tv::Key::kChildLock,  tv::Key::kSource,
  };
  h.press(tv::Key::kPower);
  h.settle();
  ASSERT_EQ(h.compare(), "");
  for (int i = 0; i < 60; ++i) {
    const auto key = alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size() - 1)))];
    h.press(key);
    // Settle past the digit timeout so buffered entry resolves in both.
    h.settle(rt::msec(1600));
    const std::string mismatch = h.compare();
    ASSERT_EQ(mismatch, "") << "step " << i << " key " << tv::to_string(key);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelToModelRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(ModelToModel, KnownFeatureInteractionDiscrepancy) {
  // A genuine spec-vs-implementation discrepancy found by the awareness
  // loop (documented in DESIGN.md): pressing a digit and then entering
  // the menu lets the real control unit commit the pending digit entry
  // on timeout *while inside the menu*, whereas the spec model discards
  // buffered digits on menu entry. The §5 model-to-model experiments
  // exist precisely to surface such feature interactions.
  LockstepHarness h;
  h.press(tv::Key::kPower);
  h.settle();
  h.press(tv::Key::kDigit5);
  h.press(tv::Key::kMenu);
  h.settle(rt::msec(1600));  // digit timeout elapses inside the menu
  EXPECT_EQ(h.set_.displayed_channel(), 5);             // real TV zapped
  const rt::Value* exp = h.expected_.get("channel");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(*exp), 1);           // model did not
}
