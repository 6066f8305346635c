#include "testkit/recovery_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "fleetdiag/reporter.hpp"
#include "hub/hub.hpp"
#include "ipc/transport.hpp"
#include "journal/wal.hpp"
#include "observation/coverage.hpp"
#include "recovery/escalation.hpp"

namespace trader::testkit {

namespace {

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

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

  // Ground truth: same convention as the diagnosis campaign — the first
  // planned fault targeting a scripted aspect seeds the program fault
  // into that aspect's feature.
  const faults::FaultSpec* primary = nullptr;
  std::size_t target_feature = SIZE_MAX;
  for (const faults::FaultSpec& spec : script.fault_plan()) {
    for (std::size_t k = 0; k < script.aspect_count(); ++k) {
      if (spec.target == aspect_name(k)) {
        primary = &spec;
        target_feature = k;
        break;
      }
    }
    if (primary != nullptr) break;
  }

  diagnosis::SyntheticProgramConfig prog_cfg = config_.program;
  prog_cfg.feature_count = std::max<std::size_t>(1, script.aspect_count());
  prog_cfg.seed ^= std::hash<std::string>{}(script.name());
  diagnosis::SyntheticProgram program(prog_cfg);
  if (primary != nullptr) {
    program.set_fault_in_feature(target_feature);
    score.kind = faults::to_string(primary->kind);
    score.target = primary->target;
    score.fault_block = program.fault_block();
  }

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

  // Handshake: the campaign itself plays the SUO end of the socket.
  ipc::FramedSocket sock;
  const auto connect = [&] {
    const int fd = ipc::connect_unix_retry(awareness_hub->path(), 2000);
    if (fd < 0) return false;
    sock = ipc::FramedSocket(fd);
    ipc::Frame hello;
    hello.type = ipc::FrameType::kHello;
    hello.detail = slot;
    if (!sock.send(hello)) return false;
    ipc::Frame ack;
    const auto deadline = wall_deadline();
    while (std::chrono::steady_clock::now() <= deadline) {
      const auto st = sock.recv(ack, 0);
      if (st == ipc::FramedSocket::RecvStatus::kFrame) {
        return ack.type == ipc::FrameType::kHelloAck;
      }
      if (st != ipc::FramedSocket::RecvStatus::kTimeout) return false;
      if (awareness_hub->poll(10) < 0) return false;
    }
    return false;
  };
  if (!connect()) return score;

  fleetdiag::ReporterConfig rep_cfg;
  rep_cfg.block_count = static_cast<std::uint32_t>(program.block_count());
  rep_cfg.flush_steps = config_.flush_steps;
  fleetdiag::SpectrumReporter reporter(rep_cfg);
  observation::BlockCoverageRecorder coverage(program.block_count());
  std::uint32_t seq = 0;
  std::uint64_t frames_shipped = 0;

  // Ship pending spectra and pump until the aggregator has folded every
  // frame — keeps the hub's diagnosis state a pure function of the
  // scenario prefix, independent of wall-clock poll interleaving.
  const auto ship = [&](runtime::SimTime now) {
    for (const ipc::Frame& f : reporter.flush(seq, now)) {
      if (!sock.send(f)) return false;
      ++frames_shipped;
    }
    return pump_until(
        [&] { return awareness_hub->diagnosis().health(slot).reports >= frames_shipped; });
  };

  // SUO-side actuation, same semantics as run_hub_publisher(): resync
  // never repairs, a targeted restart repairs only when the suspect
  // block lives in the faulty feature, the brute-force rungs always do.
  std::uint64_t last_token = 0;
  bool last_ok = false;
  std::string last_detail;
  const auto execute = [&](const ipc::Frame& f) {
    ipc::Frame ack;
    ack.type = ipc::FrameType::kRecoverAck;
    ack.seq = ++seq;
    ack.time = f.time;
    ack.action = f.action;
    ack.token = f.token;
    ack.unit = f.unit;
    if (f.token != 0 && f.token == last_token) {
      ack.ok = last_ok;
      ack.detail = last_detail;
      ++score.duplicates;
      return ack;
    }
    ++score.commands;
    const auto action = static_cast<recovery::RecoveryAction>(f.action);
    score.ladder.emplace_back(recovery::to_string(action));
    const std::size_t block_feature = program.feature_of(f.block);
    const bool on_target = target_feature != SIZE_MAX && block_feature == target_feature;
    bool ok = false;
    bool repairs = false;
    std::string detail;
    switch (action) {
      case recovery::RecoveryAction::kResync:
        ok = true;
        detail = "resynced";
        break;
      case recovery::RecoveryAction::kRestartUnit:
        ++score.restarts;
        if (score.restarts == 1) score.precise = on_target;
        repairs = program.has_fault() && on_target;
        ok = true;
        detail = repairs ? "repaired " + f.unit : "restarted " + f.unit;
        break;
      case recovery::RecoveryAction::kRestartDependents:
      case recovery::RecoveryAction::kFullRestart:
        ++score.restarts;
        if (score.restarts == 1) score.precise = on_target;
        repairs = program.has_fault();
        ok = true;
        detail = "restarted all";
        break;
      default:
        detail = "unsupported action";
        break;
    }
    if (repairs) {
      program.clear_fault();
      if (!score.repaired) {
        score.repaired = true;
        score.repaired_at = f.time;  // the command's virtual timestamp
      }
    }
    ack.ok = ok;
    ack.detail = detail;
    last_token = f.token;
    last_ok = ok;
    last_detail = detail;
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
      const auto st = sock.recv(f, 0);
      if (st == ipc::FramedSocket::RecvStatus::kFrame) {
        if (f.type == ipc::FrameType::kRecover) {
          if (!sock.send(execute(f))) return false;
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
    const bool err = primary != nullptr && fault_fired && cmd.at >= primary->activate_at;
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
      sock = ipc::FramedSocket();
      if (!make_hub() || !connect()) return score;
    }
    ++cmd_index;
  }
  if (!ship(script.horizon())) return score;
  awareness_hub->run_until(script.horizon());
  if (awareness_hub->poll(0) >= 0) drain();  // last chance at the horizon

  score.quarantined = awareness_hub->recovery().quarantined(slot);
  score.scored = primary != nullptr && score.error_steps > 0;
  if (score.scored) {
    const runtime::SimTime end = score.repaired ? score.repaired_at : script.horizon();
    score.downtime = end - score.first_error_at;
    score.censored = !score.repaired;
  }
  return score;
}

RecoveryCampaignReport RecoveryCampaign::run() {
  std::vector<LabeledScenario> labeled;
  runtime::Rng rng(config_.seed);
  labeled.reserve(config_.scenarios);
  for (std::size_t i = 0; i < config_.scenarios; ++i) {
    labeled.push_back({draw_scenario(rng, i, config_.draw), "", ""});
  }
  return run(labeled);
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
  out += ", \"precision\": " + fmt3(precision());
  out += ", \"mean_downtime_ms\": " + fmt3(mean_downtime_ms);
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
    out += ", \"mean_downtime_ms\": " + fmt3(stats.mean_downtime_ms) + "}";
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
      out += ", \"downtime_ms\": " + fmt3(runtime::to_ms(s.downtime));
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
