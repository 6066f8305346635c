// Property-based suites: determinism of the whole simulation stack,
// comparator tolerance laws, state machine structural invariants, and
// the memory-corruption / SoC-trace wiring.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "observation/soc_trace.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/explorer.hpp"
#include "statemachine/machine.hpp"
#include "tv/spec_model.hpp"
#include "tv/tv_system.hpp"

namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace sm = trader::statemachine;
namespace core = trader::core;
namespace det = trader::detection;
namespace obs = trader::observation;
namespace flt = trader::faults;

// ------------------------------------------------------------- Determinism

namespace {

// A fingerprint of a randomized TV session: every output event folded
// into a hash, plus final stats.
std::uint64_t session_fingerprint(std::uint64_t seed) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(seed)};
  tv::TvConfig config;
  config.seed = seed;
  tv::TvSystem set(sched, bus, injector, config);

  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& s) {
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  };
  bus.subscribe("tv.output", [&](const rt::Event& ev) {
    mix(ev.describe());
  });

  set.start();
  rt::Rng rng(seed ^ 0x5A5A);
  set.press(tv::Key::kPower);
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.audio", rt::sec(2),
                                   rt::msec(500), 0.5, {}});
  for (int i = 0; i < 40; ++i) {
    const auto key = static_cast<tv::Key>(rng.uniform_int(0, 25));
    set.press(key);
    sched.run_for(rng.uniform_int(10, 400) * 1000);
  }
  mix(std::to_string(set.stats().frames_total));
  mix(std::to_string(set.stats().frames_dropped));
  mix(std::to_string(set.stats().quality_sum));
  return hash;
}

}  // namespace

class Determinism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Determinism, IdenticalSeedsProduceIdenticalSessions) {
  // Bit-exact reproducibility is what makes every experiment in
  // EXPERIMENTS.md regenerable; guard it explicitly.
  EXPECT_EQ(session_fingerprint(GetParam()), session_fingerprint(GetParam()));
}

TEST_P(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(session_fingerprint(GetParam()), session_fingerprint(GetParam() + 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism, ::testing::Values(1, 7, 42, 1234));

// ------------------------------------------------------ Comparator properties

namespace {

// Drive a bare comparator through a scripted deviation pattern and count
// reports. Uses the monitor plumbing with a trivial echo SUO.
struct ComparatorLab {
  explicit ComparatorLab(int max_consecutive, double threshold) {
    sm::StateMachineDef def("lab");
    const auto s = def.add_state("S");
    def.add_internal(s, "set", nullptr, [](sm::ActionEnv& env) {
      env.vars.set("want", env.event.params.at("v"));
      env.emit("x", {{"value", env.event.params.at("v")}});
    });
    core::ObservableConfig oc;
    oc.name = "x";
    oc.threshold = threshold;
    oc.max_consecutive = max_consecutive;
    oc.time_based = false;  // fully event-driven for exact counting
    monitor = core::MonitorBuilder(sched, bus)
                  .model(std::move(def))
                  .input_topic("lab.in")
                  .output_topic("lab.out")
                  .observe(oc)
                  .startup_grace(0)
                  .comparison_period(rt::sec(100))  // effectively off
                  .build();
    monitor->start();
  }

  // Model expects `want`; system reports `got`.
  void step(std::int64_t want, std::int64_t got) {
    rt::Event in;
    in.topic = "lab.in";
    in.name = "set";
    in.fields["v"] = want;
    bus.publish(in);
    sched.run_for(rt::msec(5));
    rt::Event out;
    out.topic = "lab.out";
    out.name = "x";
    out.fields["value"] = got;
    bus.publish(out);
    sched.run_for(rt::msec(5));
  }

  rt::Scheduler sched;
  rt::EventBus bus;
  std::unique_ptr<core::AwarenessMonitor> monitor;
};

}  // namespace

class ComparatorLaw : public ::testing::TestWithParam<int> {};

TEST_P(ComparatorLaw, ErrorExactlyWhenStreakReachesLimit) {
  const int limit = GetParam();
  {
    ComparatorLab lab(limit, 0.0);
    // Streak of limit-1 deviations, then agreement: no error.
    for (int i = 0; i < limit - 1; ++i) lab.step(10, 99);
    lab.step(10, 10);
    EXPECT_TRUE(lab.monitor->errors().empty()) << "limit " << limit;
  }
  {
    ComparatorLab lab(limit, 0.0);
    // Streak of exactly limit deviations: exactly one error.
    for (int i = 0; i < limit; ++i) lab.step(10, 99);
    EXPECT_EQ(lab.monitor->errors().size(), 1u) << "limit " << limit;
    EXPECT_EQ(lab.monitor->errors()[0].consecutive, limit);
  }
}

TEST_P(ComparatorLaw, EpisodesResetAfterAgreement) {
  const int limit = GetParam();
  ComparatorLab lab(limit, 0.0);
  for (int episode = 0; episode < 3; ++episode) {
    for (int i = 0; i < limit; ++i) lab.step(10, 99);
    lab.step(10, 10);  // close the episode
  }
  EXPECT_EQ(lab.monitor->errors().size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Limits, ComparatorLaw, ::testing::Values(1, 2, 3, 5, 8));

class ThresholdLaw : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdLaw, DeviationsWithinThresholdNeverReport) {
  const double threshold = GetParam();
  ComparatorLab lab(1, threshold);
  for (int i = 0; i < 10; ++i) {
    lab.step(100, 100 + static_cast<std::int64_t>(threshold));  // at the edge
  }
  EXPECT_TRUE(lab.monitor->errors().empty());
  lab.step(100, 100 + static_cast<std::int64_t>(threshold) + 1);  // past it
  EXPECT_EQ(lab.monitor->errors().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdLaw, ::testing::Values(0.0, 1.0, 5.0, 20.0));

// ----------------------------------------------- state machine invariants

class MachineInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineInvariants, ActivePathIsAlwaysARootChain) {
  // On random walks over the TV spec model, the active configuration
  // must always be a parent chain ending in a leaf, and vars stay sane.
  auto def = tv::build_tv_spec_model();
  sm::StateMachine m(def);
  m.start(0);
  rt::Rng rng(GetParam());
  const auto alphabet = sm::event_alphabet(def);
  rt::SimTime now = 0;
  for (int i = 0; i < 400; ++i) {
    if (rng.bernoulli(0.25)) {
      now += rng.uniform_int(1, 2'000'000);
      m.advance_time(now);
    } else {
      const auto& ev = alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size() - 1)))];
      m.dispatch(sm::SmEvent::named(ev), now);
    }
    const auto path = m.active_path();
    ASSERT_FALSE(path.empty());
    // Each element's dotted path must be a prefix of the next.
    for (std::size_t k = 1; k < path.size(); ++k) {
      ASSERT_EQ(path[k].rfind(path[k - 1] + ".", 0), 0u)
          << path[k - 1] << " vs " << path[k];
    }
    const auto vol = m.vars().get_int("volume", 30);
    ASSERT_GE(vol, 0);
    ASSERT_LE(vol, 100);
    ASSERT_FALSE(m.livelock_detected());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineInvariants, ::testing::Values(3, 14, 159, 265));

// -------------------------------------------- memory corruption + soc trace

TEST(MemoryCorruption, CaughtByRangeProbeAndComparator) {
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
  set.start();
  monitor->start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(300));

  injector.schedule(flt::FaultSpec{flt::FaultKind::kMemoryCorruption, "control.volume",
                                   sched.now(), 0, 1.0, {}});
  sched.run_for(rt::msec(100));
  // The corrupted belief propagates on the next volume key press.
  set.press(tv::Key::kVolumeUp);
  sched.run_for(rt::msec(500));

  det::DetectionLog log;
  det::RangeChecker ranges(set.probes());
  ranges.poll(log);
  EXPECT_GE(log.count("range"), 1u);            // out-of-range write seen
  EXPECT_FALSE(monitor->errors().empty());      // user-visible divergence too
  EXPECT_GE(injector.first_activation("control.volume"), 0);
}

TEST(SocTrace, SamplesCountersIntoProbesMonitorAndLog) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(5));
  tv::TvSystem set(sched, bus, injector);
  obs::ResourceMonitor monitor(rt::msec(200));
  rt::TraceLog trace;
  obs::SocTraceUnit unit(sched, set.probes(), monitor, trace, rt::msec(20), 5);
  unit.watch_ranged("trace.cpu0", [&set] { return set.cpu(0).load(); }, 0.0, 1.2);
  unit.watch("trace.buffer", [&set] { return set.probes().num("video_buffer.level"); });
  unit.start();
  set.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::sec(2));
  EXPECT_GT(unit.samples(), 50u);
  EXPECT_GT(set.probes().num("trace.cpu0"), 0.0);
  EXPECT_GT(monitor.utilization("trace.cpu0", sched.now()), 0.0);
  EXPECT_GT(trace.count_component("soc-trace"), 0u);
  unit.stop();
  const auto samples_at_stop = unit.samples();
  sched.run_for(rt::sec(1));
  EXPECT_EQ(unit.samples(), samples_at_stop);
}

TEST(SocTrace, RangedWatchFiresViolationsUnderOverload) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(5));
  tv::TvSystem set(sched, bus, injector);
  obs::ResourceMonitor monitor;
  rt::TraceLog trace;
  obs::SocTraceUnit unit(sched, set.probes(), monitor, trace, rt::msec(20));
  unit.watch_ranged("trace.cpu0", [&set] { return set.cpu(0).load(); }, 0.0, 1.1);
  unit.start();
  set.start();
  set.press(tv::Key::kPower);
  injector.schedule(flt::FaultSpec{flt::FaultKind::kTaskOverrun, "decoder", rt::sec(1), 0, 1.0,
                                   {}});
  injector.schedule(flt::FaultSpec{flt::FaultKind::kBadSignal, "tuner", rt::sec(1), 0, 0.5,
                                   {}});
  sched.run_for(rt::sec(4));
  det::DetectionLog log;
  det::RangeChecker ranges(set.probes());
  ranges.poll(log);
  EXPECT_GE(log.count("range"), 1u);
}
