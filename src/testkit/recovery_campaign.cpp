#include "testkit/recovery_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "fleetdiag/reporter.hpp"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "journal/wal.hpp"
#include "observation/coverage.hpp"
#include "recovery/escalation.hpp"

namespace trader::testkit {

hub::RecoveryConfig RecoveryCampaignConfig::default_recovery() {
  hub::RecoveryConfig rc;
  rc.enabled = true;
  rc.stable_reports = 2;
  rc.token_capacity = 8;
  rc.token_refill_every = runtime::msec(100);
  rc.cooldown = runtime::msec(100);
  rc.cooldown_jitter = runtime::msec(40);
  rc.ack_timeout = runtime::msec(200);
  rc.max_retries = 2;
  rc.flap_threshold = 3;
  rc.success_reports = 4;
  // One failure per rung: resync first, and when errors persist the very
  // next action is the targeted restart (scenarios are seconds long).
  rc.escalation.failures_per_level = 1;
  rc.escalation.window = runtime::sec(30);
  return rc;
}

ScenarioScript extend_for_recovery(const ScenarioScript& script, runtime::SimTime until,
                                   runtime::SimDuration cadence) {
  ScenarioScript out = script;
  if (cadence <= 0 || until <= script.horizon()) return out;
  std::vector<ScriptCommand> cmds = script.sorted_commands();
  const std::size_t aspects = std::max<std::size_t>(1, script.aspect_count());
  runtime::SimTime t = cmds.empty() ? 0 : cmds.back().at;
  std::size_t i = 0;
  for (t += cadence; t < until; t += cadence) {
    cmds.push_back({t, i++ % aspects});
  }
  out.commands(std::move(cmds));
  out.horizon(until);
  return out;
}

RecoveryCampaign::RecoveryCampaign(RecoveryCampaignConfig config) : config_(std::move(config)) {
  if (config_.top_k == 0) config_.top_k = 1;
  if (config_.flush_steps == 0) config_.flush_steps = 1;
  config_.shards = std::max<std::size_t>(config_.shards, 1);
}

RecoveryScore RecoveryCampaign::run_scenario(const ScenarioScript& script) {
  RecoveryScore score;
  score.scenario = script.name();

  PlantedFault planted(script, config_.program);
  diagnosis::SyntheticProgram& program = planted.program;
  planted.label(score);

  // One hub per scenario, lockstep-driven: liveness probing off, virtual
  // time advanced by this thread, recovery ticked from poll(). The hub
  // lives on the heap so the crash drill can destroy and rebuild it
  // mid-scenario against the same journal directory.
  hub::HubConfig hub_cfg;
  hub_cfg.shards = config_.shards;
  hub_cfg.probe_liveness = false;
  hub_cfg.diag.top_k = config_.top_k;
  hub_cfg.diag.refresh_every = 1;
  hub_cfg.recovery = config_.recovery;
  hub_cfg.recovery.enabled = config_.orchestrate;
  hub_cfg.journal = config_.journal;
  if (hub_cfg.journal.enabled) {
    const std::string root = config_.journal_root.empty() ? std::string(".") : config_.journal_root;
    hub_cfg.journal.dir = root + "/" + script.name();
    journal::ensure_dir(hub_cfg.journal.dir);
    journal::purge_journal_dir(hub_cfg.journal.dir);
  }

  const std::string& slot = script.name();
  std::unique_ptr<hub::AwarenessHub> awareness_hub;
  const auto make_hub = [&] {
    awareness_hub = std::make_unique<hub::AwarenessHub>(hub_cfg);
    awareness_hub->add_slot(slot);
    // component_of is process wiring, installed before start(): journal
    // replay re-runs actuation decisions and needs the same mapping.
    awareness_hub->recovery().set_component_of([&program](std::size_t block) {
      const std::size_t f = program.feature_of(block);
      return f == SIZE_MAX ? std::string("infra") : aspect_name(f);
    });
    return awareness_hub->start();
  };
  if (!make_hub()) return score;

  const auto wall_deadline = [&] {
    return std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.pump_budget_ms);
  };
  const auto pump_until = [&](auto done) {
    const auto deadline = wall_deadline();
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      if (awareness_hub->poll(10) < 0) return false;
    }
    return true;
  };

  // The campaign itself plays the SUO end of the socket.
  hub::SuoLink link;
  const auto connect = [&] {
    return link.claim(awareness_hub->path(), slot, awareness_hub.get(), config_.pump_budget_ms) ==
           ipc::FrameType::kHelloAck;
  };
  if (!connect()) return score;

  fleetdiag::ReporterConfig rep_cfg;
  rep_cfg.block_count = static_cast<std::uint32_t>(program.block_count());
  rep_cfg.flush_steps = config_.flush_steps;
  fleetdiag::SpectrumReporter reporter(rep_cfg);
  observation::BlockCoverageRecorder coverage(program.block_count());
  std::uint64_t frames_shipped = 0;

  // Ship pending spectra and pump until the aggregator has folded every
  // frame — keeps the hub's diagnosis state a pure function of the
  // scenario prefix, independent of wall-clock poll interleaving.
  const auto ship = [&](runtime::SimTime now) {
    for (const ipc::Frame& f : reporter.flush(link.seq(), now)) {
      if (!link.socket().send(f)) return false;
      ++frames_shipped;
    }
    return pump_until(
        [&] { return awareness_hub->diagnosis().health(slot).reports >= frames_shipped; });
  };

  // SUO-side actuation through the program's repair rule, as in
  // run_hub_publisher(): resync never repairs, a targeted restart
  // repairs only when the suspect block lives in the faulty feature, the
  // brute-force rungs always do. Precision is scored against the
  // planted ground truth, not the program.
  const auto execute = [&](const ipc::Frame& f) {
    const ipc::Frame ack = link.recover_ack(f, f.time, [&] {
      ++score.commands;
      const auto action = static_cast<recovery::RecoveryAction>(f.action);
      score.ladder.emplace_back(recovery::to_string(action));
      const bool on_target =
          planted.feature != SIZE_MAX && program.feature_of(f.block) == planted.feature;
      hub::RecoverOutcome outcome;
      bool repairs = false;
      switch (action) {
        case recovery::RecoveryAction::kResync:
          outcome = {true, "resynced"};
          break;
        case recovery::RecoveryAction::kRestartUnit:
          ++score.restarts;
          if (score.restarts == 1) score.precise = on_target;
          repairs = program.restart_unit(f.block);
          outcome = {true, (repairs ? "repaired " : "restarted ") + f.unit};
          break;
        case recovery::RecoveryAction::kRestartDependents:
        case recovery::RecoveryAction::kFullRestart:
          ++score.restarts;
          if (score.restarts == 1) score.precise = on_target;
          repairs = program.restart_all();
          outcome = {true, "restarted all"};
          break;
        default:
          outcome.detail = "unsupported action";
          break;
      }
      if (repairs && !score.repaired) {
        score.repaired = true;
        score.repaired_at = f.time;  // the command's virtual timestamp
      }
      return outcome;
    });
    score.duplicates = link.duplicates();
    return ack;
  };

  // Service every in-flight command before virtual time moves again: one
  // command per slot is outstanding at a time, and the frozen clock
  // means no ack can time out mid-drain (zero spurious retries — the
  // action log is byte-identical run to run).
  const auto drain = [&] {
    if (!hub_cfg.recovery.enabled) return true;
    const auto deadline = wall_deadline();
    while (awareness_hub->recovery().has_outstanding(slot)) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      ipc::Frame f;
      const auto st = link.socket().recv(f, 0);
      if (st == ipc::FramedSocket::RecvStatus::kFrame) {
        if (f.type == ipc::FrameType::kRecover) {
          if (!link.socket().send(execute(f))) return false;
        }
        continue;
      }
      if (st != ipc::FramedSocket::RecvStatus::kTimeout) return false;
      if (awareness_hub->poll(10) < 0) return false;
    }
    return true;
  };

  // The lockstep loop: step the instrumented program, ship spectra,
  // advance the hub's virtual clock, let the orchestrator tick, then
  // execute whatever it commanded — all before the next command.
  std::size_t cmd_index = 0;
  for (const ScriptCommand& cmd : script.sorted_commands()) {
    const std::size_t feature = cmd.aspect % program.feature_count();
    const bool fault_fired = program.run_step(feature, coverage);
    // Persistent-fault model: once the planned fault activates, every
    // execution of the faulty block errs until an actuated repair clears
    // it (a crashed component does not heal when its window "ends") —
    // run_step() itself goes quiet after clear_fault().
    const bool err =
        planted.primary != nullptr && fault_fired && cmd.at >= planted.primary->activate_at;
    reporter.end_step_from(coverage, err);
    coverage.clear();
    ++score.steps;
    if (err) {
      if (score.error_steps == 0) score.first_error_at = cmd.at;
      ++score.error_steps;
    }
    if (reporter.flush_due() && !ship(cmd.at)) return score;
    awareness_hub->run_until(cmd.at);
    if (awareness_hub->poll(0) < 0) return score;  // recovery tick at cmd.at
    if (!drain()) return score;
    // Crash drill: at the configured boundary (commands drained, clock
    // frozen) drop the hub cold — no sync, no checkpoint, no goodbye —
    // and bring a fresh instance up on the same journal. The rest of
    // the scenario continues against the recovered state.
    if (hub_cfg.journal.enabled && cmd_index == config_.crash_at_command) {
      awareness_hub->simulate_crash();
      awareness_hub.reset();
      link.socket().close();
      if (!make_hub() || !connect()) return score;
    }
    ++cmd_index;
  }
  if (!ship(script.horizon())) return score;
  awareness_hub->run_until(script.horizon());
  if (awareness_hub->poll(0) >= 0) drain();  // last chance at the horizon

  score.quarantined = awareness_hub->recovery().quarantined(slot);
  score.scored = planted.primary != nullptr && score.error_steps > 0;
  if (score.scored) {
    const runtime::SimTime end = score.repaired ? score.repaired_at : script.horizon();
    score.downtime = end - score.first_error_at;
    score.censored = !score.repaired;
  }
  return score;
}

RecoveryCampaignReport RecoveryCampaign::run() {
  return run(draw_labeled(config_.seed, config_.scenarios, config_.draw));
}

RecoveryCampaignReport RecoveryCampaign::run(const std::vector<LabeledScenario>& labeled) {
  RecoveryCampaignReport report;
  for (const LabeledScenario& entry : labeled) {
    RecoveryScore score = run_scenario(entry.script);
    ++report.scenarios;
    report.commands += score.commands;
    RecoveryKindStats& stats = report.by_kind[score.kind];
    ++stats.scenarios;
    if (score.scored) {
      ++report.scored;
      ++stats.scored;
      report.mean_downtime_ms += runtime::to_ms(score.downtime);
      stats.mean_downtime_ms += runtime::to_ms(score.downtime);
      if (score.repaired) {
        ++report.repaired;
        ++stats.repaired;
      } else {
        ++report.censored;
      }
      if (score.restarts > 0) {
        ++report.with_restart;
        if (score.precise) {
          ++report.precise;
          ++stats.precise;
        }
      }
    }
    report.scores.push_back(std::move(score));
  }
  if (report.scored > 0) {
    report.mean_downtime_ms /= static_cast<double>(report.scored);
  }
  for (auto& [kind, stats] : report.by_kind) {
    if (stats.scored > 0) stats.mean_downtime_ms /= static_cast<double>(stats.scored);
  }
  return report;
}

std::string RecoveryCampaignReport::to_json() const {
  std::string out = "{";
  out += "\"scenarios\": " + std::to_string(scenarios);
  out += ", \"scored\": " + std::to_string(scored);
  out += ", \"repaired\": " + std::to_string(repaired);
  out += ", \"censored\": " + std::to_string(censored);
  out += ", \"with_restart\": " + std::to_string(with_restart);
  out += ", \"precise\": " + std::to_string(precise);
  out += ", \"precision\": " + fixed3(precision());
  out += ", \"mean_downtime_ms\": " + fixed3(mean_downtime_ms);
  out += ", \"commands\": " + std::to_string(commands);
  out += ", \"by_kind\": {";
  bool first = true;
  for (const auto& [kind, stats] : by_kind) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + kind + "\": {";
    out += "\"scenarios\": " + std::to_string(stats.scenarios);
    out += ", \"scored\": " + std::to_string(stats.scored);
    out += ", \"repaired\": " + std::to_string(stats.repaired);
    out += ", \"precise\": " + std::to_string(stats.precise);
    out += ", \"mean_downtime_ms\": " + fixed3(stats.mean_downtime_ms) + "}";
  }
  out += "}, \"scores\": [";
  first = true;
  for (const RecoveryScore& s : scores) {
    if (!first) out += ", ";
    first = false;
    out += "{\"scenario\": \"" + s.scenario + "\"";
    out += ", \"kind\": \"" + s.kind + "\"";
    out += ", \"scored\": " + std::string(s.scored ? "true" : "false");
    out += ", \"steps\": " + std::to_string(s.steps);
    out += ", \"error_steps\": " + std::to_string(s.error_steps);
    if (s.scored) {
      out += ", \"first_error_at_us\": " + std::to_string(s.first_error_at);
      out += ", \"repaired\": " + std::string(s.repaired ? "true" : "false");
      if (s.repaired) out += ", \"repaired_at_us\": " + std::to_string(s.repaired_at);
      out += ", \"downtime_ms\": " + fixed3(runtime::to_ms(s.downtime));
      out += ", \"censored\": " + std::string(s.censored ? "true" : "false");
      out += ", \"commands\": " + std::to_string(s.commands);
      out += ", \"restarts\": " + std::to_string(s.restarts);
      out += ", \"precise\": " + std::string(s.precise ? "true" : "false");
      out += ", \"quarantined\": " + std::string(s.quarantined ? "true" : "false");
      out += ", \"duplicates\": " + std::to_string(s.duplicates);
      out += ", \"ladder\": [";
      bool lfirst = true;
      for (const std::string& rung : s.ladder) {
        if (!lfirst) out += ", ";
        lfirst = false;
        out += "\"" + rung + "\"";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace trader::testkit
