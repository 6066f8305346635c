// Tests for impact-aware recovery (Fig. 1: recovery decides "based on
// … the expected impact on the user") and multi-fault diagnosis.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "diagnosis/spectrum.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "faults/injector.hpp"
#include "observation/coverage.hpp"
#include "perception/impact.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace per = trader::perception;
namespace rt = trader::runtime;
namespace core = trader::core;
namespace tv = trader::tv;
namespace flt = trader::faults;
namespace diag = trader::diagnosis;
namespace obs = trader::observation;

namespace {

core::ErrorReport make_error(const std::string& observable, rt::Value expected,
                             rt::Value observed, double deviation,
                             rt::SimDuration episode = rt::sec(10)) {
  core::ErrorReport err;
  err.observable = observable;
  err.expected = std::move(expected);
  err.observed = std::move(observed);
  err.deviation = deviation;
  err.consecutive = 3;
  err.first_deviation_at = rt::sec(100);
  err.detected_at = rt::sec(100) + episode;
  return err;
}

}  // namespace

TEST(Impact, SoundLossIsImmediate) {
  auto assessor = per::tv_impact_assessor();
  // Expected 40, observed 0: the sound is gone — a large fraction of
  // full scale on a high-importance, product-attributed function.
  const auto a = assessor.assess(
      make_error("sound_level", rt::Value{std::int64_t{40}}, rt::Value{std::int64_t{0}}, 40.0));
  EXPECT_EQ(a.function, "audio");
  EXPECT_EQ(a.urgency, per::RepairUrgency::kImmediate);
  EXPECT_GT(a.irritation, 0.55);
}

TEST(Impact, SmallVolumeDriftIsNotImmediate) {
  auto assessor = per::tv_impact_assessor();
  const auto a = assessor.assess(
      make_error("sound_level", rt::Value{std::int64_t{40}}, rt::Value{std::int64_t{35}}, 5.0));
  EXPECT_EQ(a.function, "audio");
  EXPECT_NE(a.urgency, per::RepairUrgency::kImmediate);
}

TEST(Impact, CategoricalScreenMismatchIsSevere) {
  auto assessor = per::tv_impact_assessor();
  const auto a = assessor.assess(make_error("screen_state", rt::Value{std::string("teletext")},
                                            rt::Value{std::string("video")}, 1.0));
  EXPECT_EQ(a.function, "teletext");
  // Teletext matters less than audio, but a categorical failure of it is
  // at least a deferred repair, never cosmetic.
  EXPECT_NE(a.urgency, per::RepairUrgency::kCosmetic);
}

TEST(Impact, ExternallyAttributedFunctionsScoreLower) {
  auto assessor = per::tv_impact_assessor();
  // channel maps to image_quality, which users blame on the broadcast.
  const auto img = assessor.assess(
      make_error("channel", rt::Value{std::int64_t{5}}, rt::Value{std::int64_t{7}}, 2.0));
  const auto snd = assessor.assess(
      make_error("sound_level", rt::Value{std::int64_t{40}}, rt::Value{std::int64_t{0}}, 40.0));
  EXPECT_LT(img.irritation, snd.irritation);
  EXPECT_EQ(img.attribution, per::Attribution::kExternal);
}

TEST(Impact, LongerEpisodesIrritateMore) {
  auto assessor = per::tv_impact_assessor();
  const auto brief = assessor.assess(make_error("sound_level", rt::Value{std::int64_t{40}},
                                                rt::Value{std::int64_t{10}}, 30.0, rt::sec(5)));
  const auto lasting = assessor.assess(make_error("sound_level", rt::Value{std::int64_t{40}},
                                                  rt::Value{std::int64_t{10}}, 30.0,
                                                  rt::sec(120)));
  EXPECT_GE(lasting.irritation, brief.irritation);
}

TEST(Impact, UnmappedObservableFallsBack) {
  auto assessor = per::tv_impact_assessor();
  const auto a = assessor.assess(
      make_error("mystery", rt::Value{std::int64_t{1}}, rt::Value{std::int64_t{2}}, 1.0));
  EXPECT_EQ(a.function, "teletext");  // the configured fallback
}

TEST(Impact, UrgencyNames) {
  EXPECT_STREQ(per::to_string(per::RepairUrgency::kImmediate), "immediate");
  EXPECT_STREQ(per::to_string(per::RepairUrgency::kCosmetic), "cosmetic");
}

TEST(Impact, DrivesRecoveryDecisionsOnRealErrors) {
  // End-to-end: a lost mute command (sound stays on!) is repaired
  // immediately; the repair decision comes from the impact assessment.
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(5));
  tv::TvSystem set(sched, bus, injector);

  auto monitor = core::MonitorBuilder(sched, bus)
                     .model(tv::build_tv_spec_model())
                     .comparison_period(rt::msec(20))
                     .startup_grace(rt::msec(100))
                     .threshold("sound_level", 0.0, /*max_consecutive=*/3)
                     .build();

  auto assessor = per::tv_impact_assessor();
  std::vector<per::RepairUrgency> decisions;
  monitor->set_recovery_handler([&](const core::ErrorReport& err) {
    const auto impact = assessor.assess(err);
    decisions.push_back(impact.urgency);
    if (impact.urgency == per::RepairUrgency::kImmediate) set.restart_component("audio");
  });

  set.start();
  monitor->start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));
  // Crank the volume up so the failed mute leaves a big deviation.
  for (int i = 0; i < 8; ++i) set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::msec(300));
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kMute);  // lost: expected 0, observed 70
  sched.run_for(rt::sec(1));

  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions[0], per::RepairUrgency::kImmediate);
  EXPECT_EQ(set.sound_output(), 0);  // repaired: mute applied via resync
}

// ------------------------------------------------------- multi-fault SFL

TEST(MultiFault, BothFaultyFeaturesSurfaceInTopRanks) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 8000;
  cfg.feature_count = 16;
  cfg.seed = 77;
  diag::SyntheticProgram prog_a(cfg);
  cfg.seed = 77;  // identical topology for the second program instance
  diag::SyntheticProgram prog_b(cfg);
  const std::size_t per_feature = prog_a.feature_end(0) - prog_a.feature_begin(0);
  prog_a.set_fault_in_feature(3, static_cast<std::size_t>(per_feature * 0.8));
  prog_b.set_fault_in_feature(9, static_cast<std::size_t>(per_feature * 0.75));

  obs::BlockCoverageRecorder cov(prog_a.block_count());
  std::vector<bool> errors;
  trader::runtime::Rng rng(5);
  for (int s = 0; s < 60; ++s) {
    const auto feature = static_cast<std::size_t>(rng.uniform_int(0, 15));
    // Run the step on both programs — identical topology and RNG would
    // diverge, so approximate a two-fault program by or-ing the error of
    // program A (fault in feature 3) with a direct hit test on B's fault.
    const bool err_a = prog_a.run_step(feature, cov);
    const bool err_b = feature == 9 && rng.bernoulli(0.85);
    cov.end_step();
    errors.push_back(err_a || err_b);
  }
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  // Both faults' home features must appear in the top of the ranking:
  // every top-20 block belongs to feature 3, feature 9, or shared infra.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 20 && i < report.ranking.size(); ++i) {
    const std::size_t f = prog_a.feature_of(report.ranking[i].block);
    if (f == 3 || f == 9) ++hits;
  }
  EXPECT_GE(hits, 10u);
  EXPECT_LE(report.rank_of(prog_a.fault_block()), 40u);
}
