// Coverage-guided scenario fuzzing: steer a campaign by novelty instead
// of drawing scenarios uniformly.
//
// The uniform campaign (campaign.hpp, EXPERIMENTS.md E16) samples one
// fault per scenario from a fixed kind mix — fine for a detection-floor
// estimate, blind to the composed failure modes the paper's
// industry-as-laboratory cases kept producing (a fault *during* a
// restart, two faults overlapping on one aspect, a resource eater
// starving a component while the comparator watches). The fuzzer closes
// that gap: it mutates ScenarioScripts (shift / stretch / attenuate /
// retarget / re-kind / add / drop / splice fault plans, kill-restart
// windows inside active faults, command drops, horizon extensions) and
// keeps a scenario only when it reaches somewhere new.
//
// "New" is judged two ways, both deterministic:
//   - shape fingerprint: the golden trace with every digit run replaced
//     by '#', FNV-hashed — the *shape* of the run (which categories, in
//     which order, with which words) with times and counter values
//     abstracted away. Raw trace fingerprints are nearly always unique;
//     shapes collapse runs that differ only in timing.
//   - coverage key: fault-kind set x verdict x detection-latency bucket
//     (plus outage / recovered markers) — a coarse behavioural cell. The
//     campaign's uniform draw only ever reaches single-kind, no-outage
//     cells, so any composed cell is evidence the fuzzer left the E16
//     envelope.
//
// Scenarios that manifest a fault and still score kMissed are the
// valuable ones: each is greedily minimized (drop faults, drop command
// chunks, drop the outage, shrink the horizon — keeping the miss) and
// kept as a Finding, which the diagnosis and recovery campaigns replay
// in process (FuzzReport::labeled_findings()); to_json() records the
// findings as replayable JSON.
//
// Everything is seeded and byte-reproducible: same FuzzConfig => same
// corpus, same coverage map, same findings, same to_json() bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "runtime/rng.hpp"
#include "runtime/sim_time.hpp"
#include "testkit/campaign.hpp"
#include "testkit/golden_trace.hpp"
#include "testkit/scenario.hpp"

namespace trader::testkit {

/// FNV-1a fingerprint of the trace's *shape*: every run of decimal
/// digits collapses to one '#', so two runs that differ only in virtual
/// times or counter values share a shape. 16 hex digits, like
/// GoldenTrace::fingerprint().
std::string shape_fingerprint(const GoldenTrace& trace);

/// Behavioural coverage cell for one executed scenario:
///   "<kind[+kind...]>|<verdict>|L<latency/bucket>[|outage][|rec]"
/// Kinds are the sorted unique planned fault kinds ("none" when clean);
/// the latency bucket is "L-" when nothing was detected.
std::string coverage_key(const ScenarioScript& script, const ScenarioResult& result,
                         runtime::SimDuration latency_bucket);

/// Canonical JSON value for one script — enough to re-build and replay
/// it byte-for-byte (name, aspects, horizon, outage window, sorted
/// commands, fault plan). Stable key order, no whitespace variance.
std::string script_to_json(const ScenarioScript& script);

/// Mutation engine over ScenarioScripts. All mutated times stay on the
/// draw cadence grid (the executor epoch grid's coarser multiple), so
/// mutants replay deterministically on every backend.
class ScenarioMutator {
 public:
  explicit ScenarioMutator(ScenarioDraw draw);

  /// One mutation of `parent` (splice also reads `second`). The result
  /// is named `name`; `op_name`, when non-null, receives the operator
  /// actually applied. Deterministic in `rng`.
  ScenarioScript mutate(runtime::Rng& rng, const ScenarioScript& parent,
                        const ScenarioScript& second, const std::string& name,
                        std::string* op_name = nullptr) const;

  /// Kind pool for add / re-kind mutations: the campaign mix plus
  /// kResourceEater (the kind the uniform draw deliberately excludes).
  static std::vector<faults::FaultKind> mutation_kinds();

 private:
  ScenarioDraw draw_;
  std::vector<faults::FaultKind> kinds_;
};

/// Greedy event-drop minimizer (ddmin flavoured): starting from a
/// scenario whose verdict is kMissed with a manifested fault, repeatedly
/// drop the outage, surplus faults, contiguous command chunks and the
/// horizon tail, keeping each reduction only if the miss (with a
/// manifested fault) survives. Spends at most `budget` executor runs;
/// `runs_out`, when non-null, receives the number actually spent. The
/// result is renamed "<name>-min".
ScenarioScript minimize_scenario(ScenarioExecutor& executor, const ScenarioScript& script,
                                 std::size_t budget, runtime::SimDuration grid,
                                 std::size_t* runs_out = nullptr);

/// Fuzz campaign parameters.
struct FuzzConfig {
  std::uint64_t seed = 2026;
  /// Iteration 0..seed_scenarios-1: uniform draw_scenario() seeds the
  /// corpus (every seed scenario is admitted).
  std::size_t seed_scenarios = 10;
  /// Mutation iterations after seeding.
  std::size_t iterations = 200;
  ScenarioDraw draw;
  ExecutorConfig executor;
  /// Detection-latency quantisation for coverage keys.
  runtime::SimDuration latency_bucket = runtime::msec(20);
  /// Executor runs the minimizer may spend per finding.
  std::size_t minimize_budget = 120;
  /// Cap on minimized findings (first-come, deterministic).
  std::size_t max_findings = 8;
};

/// One corpus member: the script plus the novelty evidence that
/// admitted it.
struct CorpusEntry {
  ScenarioScript script;
  std::string parent;    ///< Corpus name mutated from ("" = seed draw).
  std::string op;        ///< Mutation operator ("draw" for seeds).
  Verdict verdict = Verdict::kTrueNegative;
  std::string shape_fp;  ///< shape_fingerprint() of the run.
  std::string trace_fp;  ///< Raw GoldenTrace fingerprint.
  std::string cov_key;   ///< coverage_key() of the run.
  std::size_t found_at = 0;  ///< Global execution index (seeds first).
};

/// One minimized missed-detection finding.
struct Finding {
  ScenarioScript script;    ///< Minimized reproducer ("<original>-min").
  std::string original;     ///< Corpus name it was minimized from.
  std::string cov_key;      ///< Coverage cell of the original miss.
  std::size_t found_at = 0;
  std::size_t shrink_runs = 0;      ///< Executor runs the minimizer spent.
  std::size_t commands_before = 0;
  std::size_t commands_after = 0;
  std::size_t faults_before = 0;
  std::size_t faults_after = 0;
};

/// Hit statistics of one coverage cell.
struct CoverageCell {
  std::size_t hits = 0;
  std::size_t first_seen = 0;  ///< Execution index of the first hit.
};

/// Outcome of a fuzz campaign. All containers are ordered; to_json() is
/// byte-identical for identical configs.
struct FuzzReport {
  FuzzConfig config;
  std::vector<CorpusEntry> corpus;
  std::map<std::string, CoverageCell> coverage;
  std::vector<Finding> findings;
  /// corpus.size() after each mutation iteration (saturation curve).
  std::vector<std::size_t> corpus_growth;
  /// Fuzz-loop executor runs (excludes minimizer runs).
  std::size_t executions = 0;
  /// Executor runs spent by the minimizer across all findings.
  std::size_t minimize_executions = 0;
  // Per-execution verdict tallies (fuzz loop only).
  std::size_t detected = 0;
  std::size_t missed = 0;
  std::size_t false_positive = 0;
  std::size_t true_negative = 0;
  /// Executions where a detectable-kind fault manifested, and how many
  /// of those were detected — the fuzzed detection floor.
  std::size_t detectable_manifested = 0;
  std::size_t detected_detectable = 0;

  double detection_floor() const {
    return detectable_manifested == 0 ? 1.0
                                      : static_cast<double>(detected_detectable) /
                                            static_cast<double>(detectable_manifested);
  }

  /// The findings as replayable labeled scenarios, in order (script,
  /// original, cov_key): what the diagnosis and recovery campaigns run.
  std::vector<LabeledScenario> labeled_findings() const;

  /// Canonical JSON document (config echo, totals, coverage map, growth
  /// curve, corpus metadata, findings with full replayable scripts) —
  /// an output record; nothing in the project parses it back.
  std::string to_json() const;
};

/// Runs the coverage-guided loop: seed corpus from the uniform draw,
/// then mutate corpus members, admitting mutants that reach a new trace
/// shape or a new coverage cell, minimizing novel missed detections.
class FuzzCampaignRunner {
 public:
  explicit FuzzCampaignRunner(FuzzConfig config = {});

  FuzzReport run();

 private:
  FuzzConfig config_;
};

}  // namespace trader::testkit
