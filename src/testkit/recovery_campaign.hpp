// Recovery campaign: score the CLOSED loop — observe -> diagnose -> act.
//
// The diagnosis campaign (diag_campaign.hpp) stops at "was the faulty
// block found"; this one keeps going to the paper's §5 end state: the
// hub's RecoveryOrchestrator consumes the converged ranking and
// actuates the escalation ladder on the SUO over real AF_UNIX sockets
// (kRecover/kRecoverAck, protocol v3), and the campaign measures what
// operators actually care about:
//
//   MTTR      — virtual time from the first manifested error to the
//               repair that stopped the errors. The campaign models
//               faults as PERSISTENT from activation until repaired
//               (a deadlocked or crashed component does not heal
//               itself), so the supervision-only baseline is
//               right-censored at the horizon and any actuated repair
//               is a measurable improvement.
//   precision — did the restart-class action land on the *faulty*
//               component (injector ground truth), or did the fleet
//               restart an innocent one?
//
// The campaign itself plays the SUO side of the socket in lockstep
// (ship spectra -> pump the hub -> advance virtual time -> execute the
// commands the orchestrator issued -> ack -> pump), so the whole run —
// action sequence, ladder rungs, repair times, report JSON — is
// byte-reproducible per seed and identical at any shard count.
// Scenarios come from uniform draws and from the fuzzer's minimized
// findings, replayed in process from FuzzReport::labeled_findings()
// (the scenarios detection found hardest are exactly where targeted
// recovery earns its keep).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "diagnosis/synthetic_program.hpp"
#include "hub/recovery.hpp"
#include "journal/replay.hpp"
#include "testkit/diag_campaign.hpp"
#include "testkit/scenario.hpp"

namespace trader::testkit {

struct RecoveryCampaignConfig {
  std::uint64_t seed = 77;
  std::size_t scenarios = 10;  ///< Uniform draws for run().
  /// Longer horizon than the detection draw: the loop needs virtual
  /// time to converge, climb the ladder and prove the repair stuck.
  ScenarioDraw draw{4, runtime::msec(2000), runtime::msec(20), {}, 0.1};
  /// Program shape per scenario (feature_count overridden with the
  /// script's aspect count, seed decorrelated per scenario name).
  diagnosis::SyntheticProgramConfig program;
  std::size_t flush_steps = 2;  ///< Spectrum reports every N steps.
  std::size_t top_k = 10;
  std::size_t shards = 1;
  /// false = supervision-only baseline: identical run, orchestrator
  /// disabled, nothing repairs (the MTTR yardstick).
  bool orchestrate = true;
  /// Campaign-paced orchestration policy: short cooldowns and one
  /// failure per ladder rung, so the §5 ladder can climb within the
  /// scenario horizon (the fleet defaults in hub::RecoveryConfig are
  /// tuned for hour-long deployments, not 2 s scenarios). `enabled` is
  /// overridden by `orchestrate`.
  static hub::RecoveryConfig default_recovery();
  hub::RecoveryConfig recovery = default_recovery();
  /// Wall-clock budget per pump loop (lockstep progress guard).
  int pump_budget_ms = 5000;

  /// Durability drill. When `journal.enabled`, every scenario's hub
  /// journals to `journal_root`/<scenario-name> (created and purged at
  /// scenario start), and when `crash_at_command` lands inside the
  /// script the campaign SIGKILLs the hub at that command boundary
  /// (commands drained, clock frozen), restarts a fresh hub on the
  /// same journal directory, reconnects and finishes the scenario.
  /// A crash-restart run must score byte-identically to an
  /// uninterrupted one — the surface journal_test pins.
  journal::JournalConfig journal;
  std::string journal_root;
  std::size_t crash_at_command = SIZE_MAX;
};

/// Ground-truth scoring of one closed-loop scenario.
struct RecoveryScore {
  std::string scenario;
  std::string kind = "none";
  std::string target;               ///< aspect_name of the faulty feature.
  std::size_t fault_block = 0;
  std::size_t steps = 0;
  std::size_t error_steps = 0;
  bool scored = false;              ///< Fault manifested at least once.
  runtime::SimTime first_error_at = 0;
  bool repaired = false;
  runtime::SimTime repaired_at = 0;
  /// first error -> repair; right-censored at the horizon when the
  /// fault was never repaired (always, in the baseline).
  runtime::SimDuration downtime = 0;
  bool censored = false;
  std::size_t commands = 0;         ///< kRecover frames executed SUO-side.
  std::size_t restarts = 0;         ///< Restart-class commands among them.
  /// First restart-class action resolved to the faulty feature.
  bool precise = false;
  bool quarantined = false;
  std::uint64_t duplicates = 0;     ///< Cached-ack replays (hub retries).
  std::vector<std::string> ladder;  ///< Executed action names, in order.
};

struct RecoveryKindStats {
  std::size_t scenarios = 0;
  std::size_t scored = 0;
  std::size_t repaired = 0;
  std::size_t precise = 0;
  double mean_downtime_ms = 0.0;  ///< Over scored scenarios.
};

struct RecoveryCampaignReport {
  std::vector<RecoveryScore> scores;
  std::map<std::string, RecoveryKindStats> by_kind;
  std::size_t scenarios = 0;
  std::size_t scored = 0;
  std::size_t repaired = 0;
  std::size_t censored = 0;
  std::size_t with_restart = 0;   ///< Scored scenarios that saw a restart.
  std::size_t precise = 0;
  double mean_downtime_ms = 0.0;  ///< Over scored scenarios.
  std::uint64_t commands = 0;     ///< Total executed kRecover frames.

  /// Correct-component rate over scenarios that restarted anything.
  double precision() const {
    return with_restart == 0
               ? 0.0
               : static_cast<double>(precise) / static_cast<double>(with_restart);
  }

  /// Canonical JSON (stable key order) — the byte-reproducibility and
  /// shard-differential surface, and what BENCH_recovery.json embeds.
  std::string to_json() const;
};

/// Pad a script's command stream with round-robin aspect activations at
/// `cadence` up to a new `until` horizon. Minimized fuzz findings carry
/// exactly the commands that trip detection — often just one — which
/// gives a recovery loop nothing to observe; under the persistent-fault
/// model the fault is still live after the original horizon, so the
/// padded steps are where diagnosis converges and the repair lands (and
/// where the repair then *proves* itself by staying quiet).
ScenarioScript extend_for_recovery(const ScenarioScript& script, runtime::SimTime until,
                                   runtime::SimDuration cadence);

class RecoveryCampaign {
 public:
  explicit RecoveryCampaign(RecoveryCampaignConfig config = {});

  /// Run one script through the closed loop over a real AF_UNIX socket
  /// (its own hub instance, one slot named after the script).
  RecoveryScore run_scenario(const ScenarioScript& script);

  /// Score `config.scenarios` uniform draws.
  RecoveryCampaignReport run();

  /// Score an explicit labeled set (e.g. FuzzReport::labeled_findings()
  /// padded by extend_for_recovery()).
  RecoveryCampaignReport run(const std::vector<LabeledScenario>& labeled);

  const RecoveryCampaignConfig& config() const { return config_; }

 private:
  RecoveryCampaignConfig config_;
};

}  // namespace trader::testkit
