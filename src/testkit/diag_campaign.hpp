// Diagnosis-accuracy campaign: score the online fleet diagnosis chain
// against injector ground truth.
//
// The detection campaign (campaign.hpp) asks "was the failure noticed";
// this one asks the §4.4 question — "was the *faulty block* found" —
// and asks it through the full online path: a SyntheticProgram per
// scenario executes one instrumented step per scripted command, the
// step's coverage + error verdict streams through a SpectrumReporter
// into kSpectrum frames, a FleetAggregator ingests them, and the
// resulting per-slot ranking is scored by the rank of the *known*
// seeded fault block (and of its owning feature at component level).
// Because the true fault location is planted, accuracy is exact: rank,
// wasted effort and top-k membership per scenario, aggregated per fault
// kind — the diagnosis-accuracy table BENCH_fleetdiag.json ships.
//
// Scenarios come from two sources: the uniform draw_scenario() stream
// (the E16 generator) and the minimized missed-detection findings of
// the coverage-guided fuzzer, replayed in process as values
// (FuzzReport::labeled_findings(); the FUZZ_corpus.json that fuzz_demo
// writes is an output record nothing reads back). Replaying findings
// here closes a loop: scenarios where *detection* failed are exactly
// where a ranked suspect list earns its keep, so each finding becomes
// a labeled diagnosis benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "diagnosis/synthetic_program.hpp"
#include "fleetdiag/aggregator.hpp"
#include "testkit/scenario.hpp"

namespace trader::testkit {

/// `count` uniform draw_scenario() scripts from `seed`: the scenario
/// stream run() scores in the diagnosis and recovery campaigns.
std::vector<LabeledScenario> draw_labeled(std::uint64_t seed, std::size_t count,
                                          const ScenarioDraw& draw);

/// The planted-fault convention of the diagnosis and recovery
/// campaigns: one SyntheticProgram per scenario, a feature per scripted
/// aspect, seed decorrelated per script name; the first planned fault
/// whose target is a scripted aspect seeds the program fault into that
/// aspect's feature — exactly what component-level diagnosis must
/// recover and targeted recovery must hit.
struct PlantedFault {
  PlantedFault(const ScenarioScript& script, diagnosis::SyntheticProgramConfig config);

  diagnosis::SyntheticProgram program;
  const faults::FaultSpec* primary = nullptr;  ///< Into script's plan; null = clean.
  std::size_t feature = SIZE_MAX;              ///< Aspect index of `primary`.

  /// Copy the ground truth (kind, target, fault block) into a score.
  template <typename Score>
  void label(Score& score) const {
    if (primary == nullptr) return;
    score.kind = faults::to_string(primary->kind);
    score.target = primary->target;
    score.fault_block = program.fault_block();
  }
};

/// "%.3f" — the fixed-point format of both campaign reports' JSON.
std::string fixed3(double v);

struct DiagCampaignConfig {
  std::uint64_t seed = 99;
  std::size_t scenarios = 24;  ///< Uniform draws for run().
  ScenarioDraw draw;
  /// Program shape per scenario; feature_count is overridden with the
  /// script's aspect count, seed is decorrelated per scenario name.
  diagnosis::SyntheticProgramConfig program;
  std::size_t top_k = 10;
  /// SpectrumReporter flush cadence (frames per scenario ~ steps/this).
  std::size_t flush_steps = 4;
};

/// Ground-truth scoring of one scenario's diagnosis.
struct DiagnosisScore {
  std::string scenario;
  std::string kind = "none";  ///< Primary planned fault kind.
  std::string target;         ///< aspect_name(k) of the primary fault.
  std::size_t fault_block = 0;
  std::size_t steps = 0;
  std::size_t error_steps = 0;
  /// A scenario scores only when the fault manifested at least once;
  /// silent scenarios carry no SFL signal (every similarity is 0).
  bool scored = false;
  std::size_t block_rank = 0;      ///< Optimistic 1-based rank, when scored.
  std::size_t component_rank = 0;  ///< Rank of the target feature.
  double wasted_effort = 0.0;
  /// block_rank <= top_k (acc@k, optimistic ties — see wasted_effort for
  /// the tie-aware cost).
  bool in_top_k = false;
};

/// Per-fault-kind aggregation of scores.
struct DiagKindStats {
  std::size_t scenarios = 0;
  std::size_t scored = 0;
  std::size_t top_k_hits = 0;
  double mean_block_rank = 0.0;      ///< Over scored scenarios.
  double mean_component_rank = 0.0;  ///< Over scored scenarios.
  double mean_wasted_effort = 0.0;   ///< Over scored scenarios.
};

struct DiagCampaignReport {
  std::vector<DiagnosisScore> scores;
  std::map<std::string, DiagKindStats> by_kind;  ///< Keyed by kind name.
  std::size_t scenarios = 0;
  std::size_t scored = 0;
  std::size_t silent = 0;  ///< Faulted but never manifested.
  std::size_t clean = 0;   ///< No planned fault (nothing to localize).
  std::size_t top_k_hits = 0;
  std::uint64_t spectrum_frames = 0;  ///< kSpectrum frames streamed.

  double top_k_rate() const {
    return scored == 0 ? 0.0
                       : static_cast<double>(top_k_hits) / static_cast<double>(scored);
  }

  /// Canonical JSON (stable key order) for bench emitters.
  std::string to_json() const;
};

class DiagnosisCampaign {
 public:
  explicit DiagnosisCampaign(DiagCampaignConfig config = {});

  /// Replay one script through the full online chain (program ->
  /// reporter -> kSpectrum frames -> aggregator) and score the ranking
  /// against the planted fault block. When `agg` is null a private
  /// aggregator is used; otherwise the scenario lands in the shared one
  /// under its script name as slot.
  DiagnosisScore run_scenario(const ScenarioScript& script,
                              fleetdiag::FleetAggregator* agg = nullptr,
                              std::uint64_t* frames_out = nullptr);

  /// Score `config.scenarios` uniform draws (the E16 generator stream).
  DiagCampaignReport run();

  /// Score an explicit labeled set (e.g. the fuzz findings of
  /// FuzzReport::labeled_findings()).
  DiagCampaignReport run(const std::vector<LabeledScenario>& labeled);

  const DiagCampaignConfig& config() const { return config_; }

 private:
  DiagCampaignConfig config_;
};

}  // namespace trader::testkit
