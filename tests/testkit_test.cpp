// Tests for the fault-injection campaign harness (src/testkit):
// verdict classification, golden-trace recording/diffing, the
// ScenarioScript DSL, single-scenario execution, the fuzzed
// 200-scenario detection floor (40 uniform seeds + 160 coverage-guided
// mutants), byte-identical report reproducibility, and the shard-count
// differential — the same campaign must fingerprint identically at 1,
// 2 and 4 shards.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/monitor_builder.hpp"
#include "faults/injector.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace_log.hpp"
#include "testkit/campaign.hpp"
#include "testkit/fuzz.hpp"
#include "testkit/golden_trace.hpp"
#include "testkit/scenario.hpp"

namespace core = trader::core;
namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace tk = trader::testkit;
namespace faults = trader::faults;

// ------------------------------------------------------------------ Verdicts

TEST(Verdict, ClassificationMatrix) {
  using tk::Verdict;
  EXPECT_EQ(tk::classify_verdict(true, 1, 0), Verdict::kDetected);
  EXPECT_EQ(tk::classify_verdict(true, 2, 3), Verdict::kDetected);  // off-target noise ignored
  EXPECT_EQ(tk::classify_verdict(true, 0, 0), Verdict::kMissed);
  EXPECT_EQ(tk::classify_verdict(true, 0, 5), Verdict::kMissed);  // wrong aspect != detected
  EXPECT_EQ(tk::classify_verdict(false, 0, 0), Verdict::kTrueNegative);
  EXPECT_EQ(tk::classify_verdict(false, 1, 0), Verdict::kFalsePositive);
  EXPECT_EQ(tk::classify_verdict(false, 0, 1), Verdict::kFalsePositive);
}

TEST(Verdict, Names) {
  EXPECT_STREQ(tk::to_string(tk::Verdict::kDetected), "detected");
  EXPECT_STREQ(tk::to_string(tk::Verdict::kMissed), "missed");
  EXPECT_STREQ(tk::to_string(tk::Verdict::kFalsePositive), "false-positive");
  EXPECT_STREQ(tk::to_string(tk::Verdict::kTrueNegative), "true-negative");
}

// -------------------------------------------------------------- GoldenTrace

TEST(GoldenTrace, SelfEqualityAndFingerprint) {
  tk::GoldenTrace a;
  a.add(rt::msec(1), "cmd", "aspect0 inc");
  a.add(rt::msec(2), "error", "aspect0 count off by 1");
  tk::GoldenTrace b;
  b.add(rt::msec(1), "cmd", "aspect0 inc");
  b.add(rt::msec(2), "error", "aspect0 count off by 1");

  const auto d = tk::GoldenTrace::diff(a, b);
  EXPECT_TRUE(d.identical);
  EXPECT_EQ(d.describe(), "traces identical");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 16u);
  EXPECT_FALSE(a.empty());
}

TEST(GoldenTrace, FirstDivergencePointsAtTheLine) {
  tk::GoldenTrace a;
  tk::GoldenTrace b;
  a.add_line("same 0");
  b.add_line("same 0");
  a.add_line("left 1");
  b.add_line("right 1");
  a.add_line("tail");  // never reached by the diff
  const auto d = tk::GoldenTrace::diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.first_divergence, 1u);
  EXPECT_EQ(d.left, "left 1");
  EXPECT_EQ(d.right, "right 1");
  EXPECT_NE(d.describe().find("line 1"), std::string::npos);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(GoldenTrace, LengthMismatchDivergesAtTheShorterEnd) {
  tk::GoldenTrace a;
  tk::GoldenTrace b;
  a.add_line("x");
  a.add_line("extra");
  b.add_line("x");
  const auto d = tk::GoldenTrace::diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.first_divergence, 1u);
  EXPECT_EQ(d.left, "extra");
  EXPECT_EQ(d.right, "");
  EXPECT_NE(d.describe().find("<end of trace>"), std::string::npos);
}

TEST(GoldenTrace, EmptyTracesAreIdentical) {
  EXPECT_TRUE(tk::GoldenTrace::diff({}, {}).identical);
  EXPECT_EQ(tk::GoldenTrace().fingerprint(), tk::GoldenTrace().fingerprint());
}

TEST(GoldenTrace, TraceLogTapCapturesLiveRecords) {
  rt::TraceLog log(/*capacity=*/2);  // tiny: eviction must not lose taps
  tk::GoldenTrace trace;
  trace.tap(log);
  log.log(rt::msec(1), rt::TraceLevel::kInfo, "comp", "first");
  log.log(rt::msec(2), rt::TraceLevel::kWarning, "comp", "second");
  log.log(rt::msec(3), rt::TraceLevel::kError, "comp", "third");
  log.set_tap(nullptr);
  log.log(rt::msec(4), rt::TraceLevel::kInfo, "comp", "after tap cleared");

  ASSERT_EQ(trace.lines().size(), 3u);  // all three, despite capacity 2
  EXPECT_NE(trace.lines()[0].find("first"), std::string::npos);
  EXPECT_NE(trace.lines()[1].find("WARNING"), std::string::npos);
  EXPECT_NE(trace.lines()[2].find("third"), std::string::npos);
}

TEST(GoldenTrace, MetricsFingerprintFiltersAndIsStable) {
  rt::MetricsRegistry reg;
  reg.counter("comparator.errors").inc(2);
  reg.counter("model.inputs").inc(9);
  reg.counter("fleet.cross_shard_out").inc(5);  // topology-dependent: must filter out
  reg.gauge("fleet.shards").set(4.0);           // gauges never enter fingerprints
  reg.histogram("lat", {10.0}).record(3.0);     // wall-clock: never enters

  const auto snap = reg.snapshot();
  const auto lines = snap.counter_lines({"comparator.", "model."});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "comparator.errors=2");
  EXPECT_EQ(lines[1], "model.inputs=9");

  rt::MetricsRegistry other;
  other.counter("comparator.errors").inc(2);
  other.counter("model.inputs").inc(9);
  other.counter("fleet.cross_shard_out").inc(999);  // differs, but filtered
  EXPECT_EQ(snap.fingerprint({"comparator.", "model."}),
            other.snapshot().fingerprint({"comparator.", "model."}));
  EXPECT_NE(snap.fingerprint({}), other.snapshot().fingerprint({}));  // unfiltered sees it

  tk::GoldenTrace trace;
  trace.capture_metrics(snap, {"comparator.", "model."});
  ASSERT_EQ(trace.lines().size(), 2u);
  EXPECT_EQ(trace.lines()[0], "metric comparator.errors=2");
}

// ----------------------------------------------------------- ScenarioScript

TEST(Scenario, EveryExpandsTheCadenceGrid) {
  tk::ScenarioScript script;
  script.aspects(2).every(rt::msec(10), rt::msec(10), rt::msec(30));
  const auto cmds = script.sorted_commands();
  ASSERT_EQ(cmds.size(), 6u);  // 3 instants x 2 aspects
  EXPECT_EQ(cmds[0].at, rt::msec(10));
  EXPECT_EQ(cmds[0].aspect, 0u);
  EXPECT_EQ(cmds[1].at, rt::msec(10));
  EXPECT_EQ(cmds[1].aspect, 1u);
  EXPECT_EQ(cmds[5].at, rt::msec(30));
}

TEST(Scenario, SortedCommandsOrderByTimeThenAspect) {
  tk::ScenarioScript script;
  script.aspects(3).command(rt::msec(20), 1).command(rt::msec(10), 2).command(rt::msec(20), 0);
  const auto cmds = script.sorted_commands();
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_EQ(cmds[0].at, rt::msec(10));
  EXPECT_EQ(cmds[1].aspect, 0u);
  EXPECT_EQ(cmds[2].aspect, 1u);
}

TEST(Scenario, InjectConvenienceTargetsAspectByName) {
  tk::ScenarioScript script;
  script.aspects(4).inject(faults::FaultKind::kCrash, 2, rt::msec(100), rt::msec(40));
  ASSERT_EQ(script.fault_plan().size(), 1u);
  EXPECT_EQ(script.fault_plan()[0].target, "aspect2");
  EXPECT_EQ(script.fault_plan()[0].kind, faults::FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(script.fault_plan()[0].intensity, 1.0);
}

TEST(Scenario, DrawIsDeterministicPerSeed) {
  tk::ScenarioDraw draw;
  rt::Rng a(7);
  rt::Rng b(7);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto sa = tk::draw_scenario(a, i, draw);
    const auto sb = tk::draw_scenario(b, i, draw);
    EXPECT_EQ(sa.name(), sb.name());
    ASSERT_EQ(sa.fault_plan().size(), sb.fault_plan().size());
    if (!sa.fault_plan().empty()) {
      EXPECT_EQ(sa.fault_plan()[0].kind, sb.fault_plan()[0].kind);
      EXPECT_EQ(sa.fault_plan()[0].target, sb.fault_plan()[0].target);
      EXPECT_EQ(sa.fault_plan()[0].activate_at, sb.fault_plan()[0].activate_at);
      // Activation lands on the command cadence, inside the first half.
      EXPECT_EQ(sa.fault_plan()[0].activate_at % draw.cadence, 0);
      EXPECT_GE(sa.fault_plan()[0].activate_at, draw.cadence);
      EXPECT_LE(sa.fault_plan()[0].activate_at, draw.horizon / 2);
    }
  }
}

// --------------------------------------------------------- ScenarioExecutor

namespace {

tk::ScenarioScript scripted(faults::FaultKind kind) {
  tk::ScenarioScript script;
  script.name("unit").aspects(2).horizon(rt::msec(400));
  script.every(rt::msec(20), rt::msec(20), rt::msec(380));
  script.inject(kind, /*target_aspect=*/1, rt::msec(100), rt::msec(80));
  return script;
}

}  // namespace

TEST(Executor, DetectsAnObservableFault) {
  tk::ScenarioExecutor exec;
  const auto r = exec.run(scripted(faults::FaultKind::kStuckComponent));
  EXPECT_TRUE(r.fault_planned);
  EXPECT_TRUE(r.fault_manifested);
  EXPECT_EQ(r.verdict, tk::Verdict::kDetected);
  EXPECT_GT(r.errors_on_target, 0u);
  EXPECT_EQ(r.errors_off_target, 0u);  // the untouched aspect stays clean
  EXPECT_GE(r.first_manifestation, rt::msec(100));
  EXPECT_GT(r.first_detection, r.first_manifestation);
  EXPECT_GT(r.detection_latency, 0);
  EXPECT_FALSE(r.actions.empty());  // recovery ladder engaged
  EXPECT_FALSE(r.trace.empty());
}

TEST(Executor, MissesAnUnobservableFault) {
  // A task overrun perturbs timing, not the counter value: ground truth
  // records the manifestation, the comparator never sees it.
  tk::ScenarioExecutor exec;
  const auto r = exec.run(scripted(faults::FaultKind::kTaskOverrun));
  EXPECT_TRUE(r.fault_manifested);
  EXPECT_EQ(r.verdict, tk::Verdict::kMissed);
  EXPECT_EQ(r.errors_on_target, 0u);
  EXPECT_EQ(r.detection_latency, -1);
}

TEST(Executor, CleanScenarioIsTrueNegative) {
  tk::ScenarioScript script;
  script.name("clean").aspects(2).horizon(rt::msec(400));
  script.every(rt::msec(20), rt::msec(20), rt::msec(380));
  tk::ScenarioExecutor exec;
  const auto r = exec.run(script);
  EXPECT_FALSE(r.fault_planned);
  EXPECT_FALSE(r.fault_manifested);
  EXPECT_EQ(r.verdict, tk::Verdict::kTrueNegative);
  EXPECT_EQ(r.errors_on_target + r.errors_off_target, 0u);
}

TEST(Executor, RecoversViaResync) {
  tk::ScenarioExecutor exec;
  const auto r = exec.run(scripted(faults::FaultKind::kMessageLoss));
  EXPECT_EQ(r.verdict, tk::Verdict::kDetected);
  // Lost increments never come back on their own; only the escalator's
  // resync can re-converge the counter, so recovered proves the loop.
  EXPECT_TRUE(r.recovered);
  EXPECT_FALSE(r.gave_up);
}

TEST(Executor, EveryDetectableKindIsDetected) {
  tk::ScenarioExecutor exec;
  for (const auto kind : tk::campaign_default_kinds()) {
    const auto r = exec.run(scripted(kind));
    ASSERT_TRUE(r.fault_manifested) << faults::to_string(kind);
    if (tk::campaign_detectable(kind)) {
      EXPECT_EQ(r.verdict, tk::Verdict::kDetected) << faults::to_string(kind);
    } else {
      EXPECT_EQ(r.verdict, tk::Verdict::kMissed) << faults::to_string(kind);
    }
  }
}

TEST(Executor, SameScenarioSameTrace) {
  tk::ScenarioExecutor exec;
  const auto a = exec.run(scripted(faults::FaultKind::kMemoryCorruption));
  const auto b = exec.run(scripted(faults::FaultKind::kMemoryCorruption));
  const auto d = tk::GoldenTrace::diff(a.trace, b.trace);
  EXPECT_TRUE(d.identical) << d.describe();
}

// ----------------------------------------------------------- CampaignRunner

namespace {

tk::CampaignConfig mini_campaign(std::size_t shards = 1) {
  tk::CampaignConfig cfg;
  cfg.seed = 2026;
  cfg.scenarios = 50;
  cfg.executor.shards = shards;
  return cfg;
}

}  // namespace

// The detection floor, measured over a *fuzzed* mixed corpus rather
// than the uniform draw: 200 scenarios — 40 uniform seeds plus 160
// coverage-guided mutants (composed faults, attenuated intensities,
// resource eaters, kill-restart windows, command drops). The floor is
// computed over scenarios where a detectable-kind fault actually
// manifested, which is exactly what the uniform 50-scenario floor
// measured, on a far more adversarial population.
TEST(Campaign, FuzzedTwoHundredScenarioDetectionFloor) {
  tk::FuzzConfig cfg;
  cfg.seed = 2026;
  cfg.seed_scenarios = 40;
  cfg.iterations = 160;
  const auto report = tk::FuzzCampaignRunner(cfg).run();
  ASSERT_EQ(report.executions, 200u);

  // Every scenario got exactly one verdict.
  EXPECT_EQ(report.detected + report.missed + report.false_positive + report.true_negative,
            200u);

  // The paper's claim, quantified: detectable faults are overwhelmingly
  // detected — even under composed and degraded scenarios — and no run
  // raises a false alarm.
  EXPECT_GT(report.detectable_manifested, 50u);  // the corpus is not vacuous
  EXPECT_GE(report.detection_floor(), 0.9);
  EXPECT_EQ(report.false_positive, 0u);

  // The old uniform floor still holds as a sanity anchor.
  const auto uniform = tk::CampaignRunner(mini_campaign()).run();
  ASSERT_EQ(uniform.results.size(), 50u);
  EXPECT_GE(uniform.detection_rate_detectable(), 0.9);
  EXPECT_EQ(uniform.count(tk::Verdict::kFalsePositive), 0u);
  std::size_t by_kind_total = 0;
  for (const auto& [kind, ks] : uniform.by_kind) {
    by_kind_total += ks.scenarios;
    EXPECT_EQ(ks.scenarios, ks.detected + ks.missed + ks.false_positive + ks.true_negative)
        << kind;
  }
  EXPECT_EQ(by_kind_total, 50u);
}

TEST(Campaign, ReportIsByteIdenticalAcrossRuns) {
  const auto a = tk::CampaignRunner(mini_campaign()).run();
  const auto b = tk::CampaignRunner(mini_campaign()).run();
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.golden_trace().fingerprint(), b.golden_trace().fingerprint());
  // The JSON embeds the campaign fingerprint, so equality above is not
  // vacuous — and the document carries the headline numbers.
  EXPECT_NE(a.to_json().find(a.golden_trace().fingerprint()), std::string::npos);
  EXPECT_NE(a.to_json().find("detection_rate_detectable"), std::string::npos);
}

TEST(Campaign, DifferentSeedDifferentTrace) {
  auto cfg = mini_campaign();
  cfg.scenarios = 10;
  const auto a = tk::CampaignRunner(cfg).run();
  cfg.seed = 2027;
  const auto b = tk::CampaignRunner(cfg).run();
  EXPECT_NE(a.golden_trace().fingerprint(), b.golden_trace().fingerprint());
}

// ------------------------------------------------ single-vs-sharded differential

TEST(Campaign, DifferentialSingleVsShardedFingerprints) {
  auto cfg = mini_campaign();
  cfg.scenarios = 12;  // full backend matrix: keep each leg small
  const auto single = tk::CampaignRunner(cfg).run();
  const auto fp = single.golden_trace().fingerprint();
  ASSERT_GT(single.count(tk::Verdict::kDetected), 0u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    auto sharded_cfg = mini_campaign(shards);
    sharded_cfg.scenarios = 12;
    const auto sharded = tk::CampaignRunner(sharded_cfg).run();
    EXPECT_EQ(sharded.golden_trace().fingerprint(), fp) << shards << " shards";
    // Pinpoint the first diverging line if the fingerprints disagree.
    const auto d = tk::GoldenTrace::diff(single.golden_trace(), sharded.golden_trace());
    EXPECT_TRUE(d.identical) << shards << " shards: " << d.describe();
    // Verdict totals must match too (the trace implies it; check anyway).
    EXPECT_EQ(sharded.count(tk::Verdict::kDetected), single.count(tk::Verdict::kDetected));
    EXPECT_EQ(sharded.count(tk::Verdict::kMissed), single.count(tk::Verdict::kMissed));
  }
}

TEST(Campaign, BackendLabelSharedHelper) {
  tk::ExecutorConfig cfg;
  EXPECT_EQ(tk::backend_label(cfg), "sharded(1)");
  cfg.shards = 0;  // clamps to one shard, like ShardedFleetConfig
  EXPECT_EQ(tk::backend_label(cfg), "sharded(1)");
  cfg.shards = 4;
  EXPECT_EQ(tk::backend_label(cfg), "sharded(4)");
  cfg.ipc = tk::IpcMode::kHub;
  EXPECT_EQ(tk::backend_label(cfg), "sharded(4)+ipc-hub");
  // One name per mode, shared by campaign JSON and bench emitters.
  EXPECT_STREQ(tk::to_string(tk::IpcMode::kOff), "off");
  EXPECT_STREQ(tk::to_string(tk::IpcMode::kHub), "hub");
}
