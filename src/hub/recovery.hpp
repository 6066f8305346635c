// RecoveryOrchestrator: the hub-side act half of observe -> diagnose -> act.
//
// PR 7 made the hub *see* fleet-wide fault suspects (FleetAggregator's
// online SFL rankings); this module makes it *act* on them — the §5
// "stronger feedback mechanisms" end of the paper's model spectrum, and
// the same architecture shape AWDRAT demonstrates (diagnosis feeding an
// adaptive recovery layer). Per slot, the orchestrator watches the
// diagnosis converge, then climbs the §5 escalation ladder
// (resync -> restart component -> restart dependents -> full restart ->
// give up) against the remote SUO over kRecover/kRecoverAck frames
// (protocol v3, version-gated: a v2 peer is observed but never actuated).
//
// Acting on a fleet is more dangerous than acting on one box, so every
// decision passes four guards, in order:
//
//   1. Convergence gate — act only when the slot's top suspect has been
//      stable for `stable_reports` reports with no ranking churn, and
//      only when there is *new* error evidence since the last action
//      (otherwise a successful repair would be "rewarded" with another
//      restart forever).
//   2. Per-slot cooldown — consecutive actions on one slot are spaced
//      by `cooldown` plus a seeded per-slot jitter, so a correlated
//      fleet-wide fault does not re-actuate every slot on the same tick
//      forever (the retry waves decorrelate deterministically).
//   3. Version gate — kRecover is only sent to peers that negotiated
//      >= ipc::kRecoverMinVersion.
//   4. Token bucket — at most `token_capacity` actions in a burst and
//      one per `token_refill_every` of virtual time across the whole
//      fleet: a storm can cost at most the budget, never a restart
//      avalanche.
//
// Failure handling is idempotent: every command carries a fresh token
// the ack must echo; a lost command is retried with the *same* token up
// to `max_retries`, duplicate or stale acks are counted and dropped,
// and a slot whose recovery keeps failing (acks ok=false or retries
// exhausted) flaps into quarantine — still observed, never again
// actuated (graceful degradation, not a restart loop).
//
// Everything is keyed on virtual time and ordered maps, so a lockstep
// campaign driving the hub produces byte-identical action sequences at
// any shard count; hub.recovery.* metrics are wall-clock-free but are
// still excluded from golden-trace fingerprints like every other hub.*
// transport metric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "ipc/wire.hpp"
#include "journal/checkpoint.hpp"
#include "recovery/escalation.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_time.hpp"

namespace trader::hub {

/// Operator allow/deny mask over the §5 ladder rungs (the ROADMAP
/// "operator policy hooks" follow-up). Enforced at actuation time: a
/// denied rung is skipped upward to the next allowed one (each skip
/// counts in stats.policy_denied / hub.recovery.policy_denied), and
/// when nothing at or above the escalator's choice is allowed the slot
/// is treated as ladder-exhausted — give-up and quarantine. An
/// operator that denies everything has asked for an observe-only hub
/// that flags sick slots for service instead of silently spinning.
struct RecoveryPolicy {
  bool allow_resync = true;
  bool allow_restart_unit = true;
  bool allow_restart_dependents = true;
  bool allow_full_restart = true;

  bool allows(recovery::RecoveryAction action) const;
};

struct RecoveryConfig {
  /// Master switch; disabled orchestrators ignore ticks entirely (the
  /// default keeps existing hub deployments byte-identical).
  bool enabled = false;

  /// Convergence gate: reports the slot's top suspect must survive
  /// unchanged (same component, no ranking churn) before it is acted on.
  std::uint64_t stable_reports = 3;

  /// Fleet-wide token bucket on virtual time: capacity caps the burst,
  /// one token refills per `token_refill_every`. This is the storm
  /// guard — a correlated fault across the fleet can trigger at most
  /// `token_capacity` actions, then one per refill period.
  int token_capacity = 4;
  runtime::SimDuration token_refill_every = runtime::msec(500);

  /// Per-slot spacing between actions, plus a deterministic per-slot
  /// jitter in [0, cooldown_jitter] derived from `seed` so correlated
  /// slots decorrelate instead of re-synchronizing every window.
  runtime::SimDuration cooldown = runtime::sec(2);
  runtime::SimDuration cooldown_jitter = runtime::msec(250);
  std::uint64_t seed = 0x7ec0;

  /// Idempotent command handling: a command unacked for `ack_timeout`
  /// is resent with the same token up to `max_retries` times, then
  /// counted as a flap.
  runtime::SimDuration ack_timeout = runtime::msec(500);
  int max_retries = 2;

  /// Failed recoveries (ok=false acks or exhausted retries) tolerated
  /// before the slot is quarantined.
  int flap_threshold = 3;

  /// Reports without new error evidence after an action before the
  /// action is deemed to have worked (decays the escalation ladder).
  std::uint64_t success_reports = 4;

  /// Ladder policy per (slot, suspect-component).
  recovery::EscalationConfig escalation;

  /// Operator mask over which rungs may actually be actuated.
  RecoveryPolicy policy;

  /// Bound on the retained action log (oldest kept; campaigns read it).
  std::size_t action_log_limit = 8192;
};

/// One actuation decision, recorded in virtual time (deterministic).
struct RecoveryActionRecord {
  runtime::SimTime at = 0;
  std::string slot;
  recovery::RecoveryAction action = recovery::RecoveryAction::kResync;
  std::string unit;
  std::uint32_t block = 0;
  std::uint64_t token = 0;
  bool retry = false;
};

/// Lifetime counters (mirrored into hub.recovery.* when a registry was
/// supplied to the constructor).
struct RecoveryStats {
  std::uint64_t sent = 0;             ///< Commands issued (excl. retries).
  std::uint64_t retries = 0;          ///< Same-token resends after timeout.
  std::uint64_t timeouts = 0;         ///< Ack deadlines missed.
  std::uint64_t lost = 0;             ///< Outstanding commands dropped with the link.
  std::uint64_t acked_ok = 0;
  std::uint64_t acked_fail = 0;
  std::uint64_t duplicate_acks = 0;   ///< Stale/unknown tokens dropped.
  std::uint64_t suppressed_unconverged = 0;
  std::uint64_t suppressed_cooldown = 0;
  std::uint64_t suppressed_tokens = 0;
  std::uint64_t suppressed_version = 0;
  std::uint64_t quarantined = 0;      ///< Slots ever quarantined.
  std::uint64_t give_ups = 0;         ///< Ladder exhausted.
  std::uint64_t recovered = 0;        ///< Quiet periods that decayed the ladder.
  std::uint64_t policy_denied = 0;    ///< Ladder rungs skipped by RecoveryPolicy.
};

class RecoveryOrchestrator : public journal::Checkpointable {
 public:
  /// Deliver one committed kRecover frame toward a slot's connection,
  /// called by tick() after it released its lock. A send that fails
  /// closes the link, and the hub's slot_down() marks the command lost;
  /// a slot without a connection (every slot during replay) drops it.
  using SendFn = std::function<void(const std::string& slot, const ipc::Frame&)>;
  /// Map a suspect block id to the component (RecoverableUnit) name the
  /// SUO should act on. A pure mapping: tick() calls it while deciding,
  /// under the lock.
  using ComponentOf = std::function<std::string(std::size_t block)>;

  RecoveryOrchestrator(RecoveryConfig config, fleetdiag::FleetAggregator& diag,
                       runtime::MetricsRegistry* metrics = nullptr);

  void set_send(SendFn fn);
  void set_component_of(ComponentOf fn);

  // -- slot lifecycle (driven by the hub) ---------------------------------
  /// The slot's connection completed its handshake at `version`.
  void slot_up(const std::string& slot, std::uint8_t negotiated_version);
  /// The slot's connection dropped; an outstanding command is lost (the
  /// SUO may or may not have executed it — the token makes a late
  /// re-execution harmless).
  void slot_down(const std::string& slot);
  /// The hub gave up on the slot permanently: drop all orchestration
  /// and escalation state (mirrors FleetAggregator::retire_slot).
  void retire_slot(const std::string& slot);

  /// Fold one kRecoverAck from `slot`. Non-ack frames are ignored.
  void on_ack(const std::string& slot, const ipc::Frame& frame);

  /// One actuation pass at virtual time `now`: handle ack timeouts,
  /// then walk slots in name order and issue at most one command per
  /// eligible slot. Decisions are committed under the lock and the
  /// frames sent after it. Returns the commands issued (incl. retries).
  std::size_t tick(runtime::SimTime now);

  // -- introspection -------------------------------------------------------
  bool enabled() const { return config_.enabled; }
  bool quarantined(const std::string& slot) const;
  std::size_t quarantined_count() const;
  bool has_outstanding(const std::string& slot) const;
  RecoveryStats stats() const;
  std::vector<RecoveryActionRecord> actions() const;
  const RecoveryConfig& config() const { return config_; }

  // Checkpointable (the durable hub snapshots ladder positions, token
  // bucket, cooldowns, quarantine set, outstanding commands and the
  // action log; config and the send/component_of hooks are process
  // wiring and must match across the restart).
  std::string checkpoint_name() const override { return "hub.recovery"; }
  std::uint32_t checkpoint_version() const override { return 2; }
  void save_state(journal::Encoder& out) const override;
  bool load_state(journal::Decoder& in, std::uint32_t version) override;

 private:
  struct SlotState {
    std::uint8_t negotiated_version = 0;
    bool up = false;
    bool quarantined = false;
    int flaps = 0;
    runtime::SimDuration jitter = 0;   ///< Seeded per-slot cooldown extra.
    runtime::SimTime cooldown_until = 0;

    // Convergence candidate.
    bool has_candidate = false;
    std::string candidate;
    std::uint32_t candidate_block = 0;
    std::uint64_t candidate_reports = 0;
    std::uint64_t candidate_churn = 0;

    // Outstanding command (idempotency token pending an ack).
    bool outstanding = false;
    std::uint64_t token = 0;
    std::uint8_t action = 0;
    std::string unit;
    std::uint32_t block = 0;
    runtime::SimTime sent_at = 0;
    int retries = 0;

    // Post-action damping: act again only on *new* error evidence.
    // The error watermark persists past a quiet-success decay — the
    // cumulative error count never re-justifies a finished recovery.
    bool acted = false;
    std::string acted_unit;
    std::uint64_t error_steps_at_action = 0;
    std::uint64_t reports_at_action = 0;

    /// Escalator keys issued for this slot (forgotten on retire).
    std::set<std::string> ladder_keys;
  };

  /// Commands a tick committed, delivered after its lock is released.
  using Outbox = std::vector<std::pair<std::string, ipc::Frame>>;

  void refill_tokens_locked(runtime::SimTime now);
  std::size_t quarantined_locked() const;
  void quarantine_locked(SlotState& st);
  void fail_outstanding_locked(SlotState& st);
  /// Mark the slot's command outstanding, log it and queue its frame.
  void issue_locked(const std::string& slot, SlotState& st, runtime::SimTime now, bool retry,
                    Outbox& outbox);

  RecoveryConfig config_;
  fleetdiag::FleetAggregator& diag_;
  mutable std::mutex mu_;
  SendFn send_;
  ComponentOf component_of_;
  recovery::RecoveryEscalator escalator_;
  std::map<std::string, SlotState> slots_;
  std::vector<RecoveryActionRecord> actions_;
  RecoveryStats stats_;
  std::uint64_t token_counter_ = 0;
  std::int64_t tokens_ = 0;
  runtime::SimTime last_refill_ = 0;

  // hub.recovery.* instruments (null without a registry).
  runtime::Counter* sent_ctr_ = nullptr;
  runtime::Counter* retries_ctr_ = nullptr;
  runtime::Counter* timeouts_ctr_ = nullptr;
  runtime::Counter* acked_ok_ctr_ = nullptr;
  runtime::Counter* acked_fail_ctr_ = nullptr;
  runtime::Counter* duplicate_acks_ctr_ = nullptr;
  runtime::Counter* suppressed_ctr_ = nullptr;
  runtime::Counter* quarantined_ctr_ = nullptr;
  runtime::Counter* give_ups_ctr_ = nullptr;
  runtime::Counter* recovered_ctr_ = nullptr;
  runtime::Counter* policy_denied_ctr_ = nullptr;
  runtime::Gauge* quarantined_gauge_ = nullptr;
};

}  // namespace trader::hub
