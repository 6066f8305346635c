#include "testkit/diag_campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "diagnosis/component_ranker.hpp"
#include "fleetdiag/reporter.hpp"
#include "observation/coverage.hpp"

namespace trader::testkit {

namespace {

diagnosis::SyntheticProgramConfig per_script(diagnosis::SyntheticProgramConfig config,
                                             const ScenarioScript& script) {
  config.feature_count = std::max<std::size_t>(1, script.aspect_count());
  config.seed ^= std::hash<std::string>{}(script.name());
  return config;
}

}  // namespace

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

PlantedFault::PlantedFault(const ScenarioScript& script, diagnosis::SyntheticProgramConfig config)
    : program(per_script(std::move(config), script)) {
  for (const faults::FaultSpec& spec : script.fault_plan()) {
    for (std::size_t k = 0; k < script.aspect_count(); ++k) {
      if (spec.target == aspect_name(k)) {
        primary = &spec;
        feature = k;
        program.set_fault_in_feature(k);
        return;
      }
    }
  }
}

std::vector<LabeledScenario> draw_labeled(std::uint64_t seed, std::size_t count,
                                          const ScenarioDraw& draw) {
  std::vector<LabeledScenario> labeled;
  runtime::Rng rng(seed);
  labeled.reserve(count);
  for (std::size_t i = 0; i < count; ++i) labeled.push_back({draw_scenario(rng, i, draw), "", ""});
  return labeled;
}

DiagnosisCampaign::DiagnosisCampaign(DiagCampaignConfig config) : config_(std::move(config)) {
  if (config_.top_k == 0) config_.top_k = 1;
  if (config_.flush_steps == 0) config_.flush_steps = 1;
}

DiagnosisScore DiagnosisCampaign::run_scenario(const ScenarioScript& script,
                                               fleetdiag::FleetAggregator* agg,
                                               std::uint64_t* frames_out) {
  DiagnosisScore score;
  score.scenario = script.name();

  PlantedFault planted(script, config_.program);
  diagnosis::SyntheticProgram& program = planted.program;
  planted.label(score);

  fleetdiag::FleetAggregator local(fleetdiag::AggregatorConfig{config_.top_k, 1});
  if (agg == nullptr) agg = &local;
  const std::string& slot = script.name();

  // The full online chain: instrumented step -> sealed spectrum ->
  // kSpectrum frames -> aggregator ingest, exactly what a publisher and
  // the hub do over the socket.
  fleetdiag::ReporterConfig rep_cfg;
  rep_cfg.block_count = static_cast<std::uint32_t>(program.block_count());
  rep_cfg.flush_steps = config_.flush_steps;
  fleetdiag::SpectrumReporter reporter(rep_cfg);
  observation::BlockCoverageRecorder coverage(program.block_count());
  std::uint32_t seq = 0;
  std::uint64_t frames = 0;
  const auto ship = [&](runtime::SimTime now) {
    for (const ipc::Frame& f : reporter.flush(seq, now)) {
      agg->ingest(slot, f);
      ++frames;
    }
  };

  for (const ScriptCommand& cmd : script.sorted_commands()) {
    const std::size_t feature = cmd.aspect % program.feature_count();
    const bool fault_fired = program.run_step(feature, coverage);
    // The step errs only while the planned fault is live: the injected
    // bug exists in the code the whole run, but only manifests inside
    // its activation window (the intermittent-fault model of §4.4).
    const bool err =
        planted.primary != nullptr && fault_fired && planted.primary->active_at(cmd.at);
    reporter.end_step_from(coverage, err);
    coverage.clear();
    ++score.steps;
    if (err) ++score.error_steps;
    if (reporter.flush_due()) ship(cmd.at);
  }
  ship(script.horizon());
  agg->refresh();
  if (frames_out != nullptr) *frames_out += frames;

  score.scored = planted.primary != nullptr && score.error_steps > 0;
  if (!score.scored) return score;

  const diagnosis::DiagnosisReport report = agg->report(slot);
  score.block_rank = report.rank_of(score.fault_block);
  score.wasted_effort = report.wasted_effort(score.fault_block);
  // acc@k with optimistic tie-breaking: minimized scenarios often carry a
  // single error step, which ties every block of that step at the same
  // similarity; the live cached list cuts such ties by block id, so
  // membership there would measure id order, not localization.
  score.in_top_k = score.block_rank <= config_.top_k;
  const auto components = agg->component_ranking(slot, [&](std::size_t block) {
    const std::size_t f = program.feature_of(block);
    return f == SIZE_MAX ? std::string("infra") : aspect_name(f);
  });
  score.component_rank = diagnosis::ComponentRanker::rank_of(components, score.target);
  return score;
}

DiagCampaignReport DiagnosisCampaign::run() {
  return run(draw_labeled(config_.seed, config_.scenarios, config_.draw));
}

DiagCampaignReport DiagnosisCampaign::run(const std::vector<LabeledScenario>& labeled) {
  DiagCampaignReport report;
  fleetdiag::FleetAggregator shared(fleetdiag::AggregatorConfig{config_.top_k, 1});
  for (const LabeledScenario& entry : labeled) {
    DiagnosisScore score = run_scenario(entry.script, &shared, &report.spectrum_frames);
    ++report.scenarios;
    DiagKindStats& stats = report.by_kind[score.kind];
    ++stats.scenarios;
    if (score.kind == "none") {
      ++report.clean;
    } else if (!score.scored) {
      ++report.silent;
    }
    if (score.scored) {
      ++report.scored;
      ++stats.scored;
      stats.mean_block_rank += static_cast<double>(score.block_rank);
      stats.mean_component_rank += static_cast<double>(score.component_rank);
      stats.mean_wasted_effort += score.wasted_effort;
      if (score.in_top_k) {
        ++report.top_k_hits;
        ++stats.top_k_hits;
      }
    }
    report.scores.push_back(std::move(score));
  }
  for (auto& [kind, stats] : report.by_kind) {
    if (stats.scored == 0) continue;
    const double n = static_cast<double>(stats.scored);
    stats.mean_block_rank /= n;
    stats.mean_component_rank /= n;
    stats.mean_wasted_effort /= n;
  }
  return report;
}

std::string DiagCampaignReport::to_json() const {
  std::string out = "{";
  out += "\"scenarios\": " + std::to_string(scenarios);
  out += ", \"scored\": " + std::to_string(scored);
  out += ", \"silent\": " + std::to_string(silent);
  out += ", \"clean\": " + std::to_string(clean);
  out += ", \"top_k_hits\": " + std::to_string(top_k_hits);
  out += ", \"top_k_rate\": " + fixed3(top_k_rate());
  out += ", \"spectrum_frames\": " + std::to_string(spectrum_frames);
  out += ", \"by_kind\": {";
  bool first = true;
  for (const auto& [kind, stats] : by_kind) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + kind + "\": {";
    out += "\"scenarios\": " + std::to_string(stats.scenarios);
    out += ", \"scored\": " + std::to_string(stats.scored);
    out += ", \"top_k_hits\": " + std::to_string(stats.top_k_hits);
    out += ", \"mean_block_rank\": " + fixed3(stats.mean_block_rank);
    out += ", \"mean_component_rank\": " + fixed3(stats.mean_component_rank);
    out += ", \"mean_wasted_effort\": " + fixed3(stats.mean_wasted_effort) + "}";
  }
  out += "}, \"scores\": [";
  first = true;
  for (const DiagnosisScore& s : scores) {
    if (!first) out += ", ";
    first = false;
    out += "{\"scenario\": \"" + s.scenario + "\"";
    out += ", \"kind\": \"" + s.kind + "\"";
    out += ", \"scored\": " + std::string(s.scored ? "true" : "false");
    out += ", \"steps\": " + std::to_string(s.steps);
    out += ", \"error_steps\": " + std::to_string(s.error_steps);
    if (s.scored) {
      out += ", \"block_rank\": " + std::to_string(s.block_rank);
      out += ", \"component_rank\": " + std::to_string(s.component_rank);
      out += ", \"wasted_effort\": " + fixed3(s.wasted_effort);
      out += ", \"in_top_k\": " + std::string(s.in_top_k ? "true" : "false");
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace trader::testkit
