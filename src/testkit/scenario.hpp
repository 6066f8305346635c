// ScenarioScript: a programmatic mini-DSL composing user-input
// sequences with fault plans.
//
// A scenario drives N scripted "counter" aspects — the minimal SUO
// whose spec model expects one increment per command — through a timed
// command sequence while a FaultInjector plan perturbs the chosen
// target aspect. Tests, campaigns and the campaign_demo example all
// build scenarios through this one builder, so "the same scenario" is
// a value that can be replayed on any backend (a ShardedFleet at any
// shard count, in process or behind a transport).
//
// Command times must sit on the executor's epoch grid: every backend
// delivers externally published events at epoch boundaries, and grid
// alignment is what makes their golden traces byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "runtime/rng.hpp"
#include "runtime/sim_time.hpp"

namespace trader::testkit {

/// One scripted user command: "increment aspect k at time t".
struct ScriptCommand {
  runtime::SimTime at = 0;
  std::size_t aspect = 0;
};

/// Canonical name of scripted aspect `k` ("aspect<k>") — also the fault
/// target namespace the injector plan uses.
std::string aspect_name(std::size_t k);

class ScenarioScript {
 public:
  ScenarioScript& name(std::string n);
  /// Number of counter aspects (monitors) in play. Default 1.
  ScenarioScript& aspects(std::size_t count);
  /// Virtual end time of the scenario. Default 500 ms.
  ScenarioScript& horizon(runtime::SimTime end);

  /// One command on one aspect at an absolute time.
  ScenarioScript& command(runtime::SimTime at, std::size_t aspect);
  /// Command cadence on every aspect: at from, from+period, ... <= to.
  ScenarioScript& every(runtime::SimDuration period, runtime::SimTime from, runtime::SimTime to);

  /// Add a fault to the plan. `spec.target` should be aspect_name(k).
  ScenarioScript& inject(faults::FaultSpec spec);
  /// Convenience: fault of `kind` on aspect `k`.
  ScenarioScript& inject(faults::FaultKind kind, std::size_t target_aspect,
                         runtime::SimTime activate_at, runtime::SimDuration duration,
                         double intensity = 1.0);

  /// Replace the whole command list / fault plan — the mutation hooks
  /// the fuzz driver uses (testkit/fuzz.hpp) to splice and shrink
  /// scripts without re-deriving them from a builder chain.
  ScenarioScript& commands(std::vector<ScriptCommand> cmds);
  ScenarioScript& faults(std::vector<faults::FaultSpec> plan);

  /// Kill-and-restart window carried by the scenario itself: the SUO is
  /// unreachable in [down, up). Honored by ScenarioExecutor on every
  /// backend (virtual link on the in-process fleets, real link drop on
  /// the IPC/hub ones); the one way to plan an outage. down < 0 clears
  /// the window.
  ScenarioScript& outage(runtime::SimTime down, runtime::SimTime up);

  const std::string& name() const { return name_; }
  std::size_t aspect_count() const { return aspects_; }
  runtime::SimTime horizon() const { return horizon_; }
  const std::vector<faults::FaultSpec>& fault_plan() const { return faults_; }
  runtime::SimTime suo_down() const { return suo_down_; }
  runtime::SimTime suo_up() const { return suo_up_; }
  bool has_outage() const { return suo_down_ >= 0 && suo_up_ > suo_down_; }

  /// Commands sorted by (time, aspect) — the deterministic replay order.
  std::vector<ScriptCommand> sorted_commands() const;

 private:
  std::string name_ = "scenario";
  std::size_t aspects_ = 1;
  runtime::SimTime horizon_ = runtime::msec(500);
  std::vector<ScriptCommand> commands_;
  std::vector<faults::FaultSpec> faults_;
  runtime::SimTime suo_down_ = -1;
  runtime::SimTime suo_up_ = -1;
};

/// A replayable scenario with its provenance label (fuzz finding or
/// uniform draw).
struct LabeledScenario {
  ScenarioScript script;
  std::string original;  ///< Corpus name a finding was minimized from.
  std::string cov_key;   ///< Coverage cell of the original miss.
};

/// Parameters for drawing random scenarios (CampaignRunner's generator).
struct ScenarioDraw {
  std::size_t aspects = 4;
  runtime::SimTime horizon = runtime::msec(600);
  /// Command cadence; must be a multiple of the executor epoch.
  runtime::SimDuration cadence = runtime::msec(20);
  /// Fault kinds to draw from (empty => campaign_default_kinds()).
  std::vector<faults::FaultKind> kinds;
  /// Fraction of scenarios left fault-free (true-negative probes).
  double clean_fraction = 0.1;
};

/// Fault kinds the scripted counter SUO turns into observable
/// deviations — the kinds a comparator-based monitor can detect.
bool campaign_detectable(faults::FaultKind kind);

/// Default campaign mix: every detectable kind plus the two kinds whose
/// manifestation is invisible to a counter comparator (task-overrun,
/// bad-signal), which exercise the "missed" verdict arm. Deliberately
/// excludes kResourceEater: the E16 uniform draw is the fixed baseline
/// the coverage-guided fuzzer (testkit/fuzz.hpp) is measured against.
std::vector<faults::FaultKind> campaign_default_kinds();

/// Draw scenario `index` of a campaign deterministically from `rng`.
/// Fault activation times land on the command cadence so a planned
/// fault always overlaps actual manifestation points.
ScenarioScript draw_scenario(runtime::Rng& rng, std::size_t index, const ScenarioDraw& draw);

}  // namespace trader::testkit
