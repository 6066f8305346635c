// AwarenessHub: one epoll loop multiplexing a fleet of remote SUOs.
//
// The paper's Fig. 2 deployment runs the System Under Observation in
// its own process; src/ipc scales that to one monitor per blocking
// socket. The hub inverts the topology for fleet scale: N SUO
// publisher processes connect *in* to a single AF_UNIX listener, and
// one nonblocking EventLoop drives every link plus the liveness wheel
// on one thread. Decoded input/output events are published into a
// ShardedFleet, whose epoch-lockstep delivery keeps verdicts and
// counter fingerprints identical to in-process runs — the hub adds a
// transport, never semantics.
//
// Slot model: each expected SUO is pre-registered as a named slot
// (its aspect). A connection claims a slot with the kHello peer name;
// unknown names, already-claimed slots and reconnects that land
// inside the slot's backoff window are rejected with kShutdown. The
// slot's ProcessSupervisor persists across reconnects, so outage
// accounting (exactly one report per up->down) and capped seeded
// backoff survive the connection churn they describe.
//
// Liveness is hub-driven: a fixed-rate EventLoop timer probes every
// live slot with kHeartbeat; a slot that fails to ack for
// heartbeat_miss_threshold consecutive probes is declared dead and
// evicted. Because the timer is fixed-rate with catch-up firing, a
// stalled loop iteration cannot silently stretch the liveness window.
// While a slot is down its link gate (MonitorBuilder::link_gate) keeps
// the slot's Comparators quiet — the monitors degrade instead of
// flooding the error stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/interfaces.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "fleetdiag/aggregator.hpp"
#include "hub/connection.hpp"
#include "hub/event_loop.hpp"
#include "hub/recovery.hpp"
#include "ipc/supervisor.hpp"
#include "ipc/wire.hpp"
#include "journal/replay.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace_log.hpp"

namespace trader::hub {

struct HubConfig {
  /// Listener path; '@' prefix = Linux abstract namespace. Empty picks
  /// a unique abstract name ("@trader-hub-<pid>-<n>").
  std::string path;

  /// Fleet geometry (see ShardedFleetConfig).
  std::size_t shards = 1;
  runtime::SimDuration epoch = runtime::msec(10);
  std::uint64_t seed = 0x5eed;

  /// Hub-driven liveness probing. Off for lockstep test drivers that
  /// pump the loop manually (a probe between pumps would see misses).
  bool probe_liveness = true;
  std::int64_t heartbeat_interval_ms = 50;
  /// Per-slot supervision policy (miss threshold, reconnect backoff).
  ipc::SupervisorConfig supervisor;

  /// Prefix ingested event topics with "<slot>/" — lets many SUOs that
  /// all publish "tv.input" style topics coexist in one fleet.
  bool namespace_topics = false;

  /// Advance the fleet automatically to the watermark (minimum last
  /// event time across up slots) after each poll. Off when the caller
  /// drives virtual time via run_until().
  bool auto_advance = false;

  /// Per-connection outbound queue policy.
  ConnectionLimits limits;

  /// Accepted protocol range for handshakes.
  std::uint8_t min_version = ipc::kMinProtocolVersion;
  std::uint8_t max_version = ipc::kProtocolVersion;

  /// Online diagnosis policy (top-k size, refresh cadence) for
  /// kSpectrum frames folded into the hub-side FleetAggregator.
  fleetdiag::AggregatorConfig diag;

  /// Closed-loop recovery actuation policy (off by default: an
  /// observing hub stays byte-identical to pre-v3 deployments).
  RecoveryConfig recovery;

  /// Durability policy (off by default). When enabled the hub journals
  /// every state-changing input (frames, slot transitions, actuation
  /// ticks) to a write-ahead log in `journal.dir` and checkpoints the
  /// diagnosis/recovery/slot state on a record cadence; a restarted hub
  /// pointed at the same directory replays back to the exact pre-crash
  /// state before accepting new connections.
  journal::JournalConfig journal;
};

// Private ReplaySink: recovery replays journaled inputs through the
// same ingest/diagnosis/actuation members a live connection feeds, so
// the replayed hub is the live hub minus the sockets. Private
// Checkpointable: the hub snapshots its own slot table (watermarks,
// sequence numbers, supervisor state) alongside the diagnosis and
// recovery parts it owns.
class AwarenessHub : private journal::ReplaySink, private journal::Checkpointable {
 public:
  explicit AwarenessHub(HubConfig config = {});
  ~AwarenessHub();

  AwarenessHub(const AwarenessHub&) = delete;
  AwarenessHub& operator=(const AwarenessHub&) = delete;

  /// Register an expected SUO. Returns the slot's link gate (true while
  /// the slot's connection is up) for MonitorBuilder::link_gate; for a
  /// known slot, its existing gate. Slots must be added before start().
  std::shared_ptr<std::atomic<bool>> add_slot(const std::string& name);

  /// Add a monitor to the underlying fleet. `slot` is bookkeeping only:
  /// the monitor subscribes to whatever topics its builder configured.
  core::AwarenessMonitor& add_monitor(const std::string& slot, const std::string& aspect,
                                      core::MonitorBuilder builder);

  /// Bind the listener, start the fleet and (optionally) the liveness
  /// wheel. False when the listener cannot be created.
  bool start();
  void stop();
  bool running() const { return listen_fd_ >= 0; }

  /// One event-loop iteration (accepts, reads, flushes, timers).
  /// Returns the number of dispatched callbacks, -1 on loop failure.
  int poll(int timeout_ms);
  /// poll() until request_stop(). Thread-safe to stop.
  void run();
  void request_stop() { loop_.request_stop(); }

  /// Advance fleet virtual time (epoch-lockstep, deterministic).
  void run_until(runtime::SimTime t) { fleet_.run_until(t); }
  runtime::SimTime now() const { return fleet_.now(); }

  const std::string& path() const { return config_.path; }
  std::size_t connection_count() const { return connections_.size(); }
  std::size_t slot_count() const { return slots_.size(); }
  bool slot_up(const std::string& name) const;
  const ipc::ProcessSupervisor* slot_supervisor(const std::string& name) const;

  /// Total event frames published into the fleet so far.
  std::uint64_t events_ingested() const { return events_ingested_; }

  /// Observe every event right after it is published into the fleet
  /// (benches timestamp the decode->publish path through this).
  using IngestTap = std::function<void(const runtime::Event&)>;
  void set_ingest_tap(IngestTap tap) { ingest_tap_ = std::move(tap); }

  core::ShardedFleet& fleet() { return fleet_; }

  /// Link-outage reports (observable "hub.link/<slot>"), one per
  /// up->down transition. Orderly kShutdown teardown is not an outage.
  const std::vector<core::ErrorReport>& link_errors() const { return link_errors_; }
  void set_trace(runtime::TraceLog* trace) { trace_ = trace; }

  /// Hub instruments ("hub.*") merged with the fleet-wide snapshot.
  runtime::MetricsSnapshot metrics() const;
  runtime::MetricsRegistry& hub_metrics() { return metrics_; }

  /// Online diagnosis state fed by kSpectrum frames: per-slot and
  /// fleet-wide top-k suspect rankings plus health rollups, persisted
  /// across reconnects and freed when a slot is permanently failed.
  fleetdiag::FleetAggregator& diagnosis() { return diag_; }
  const fleetdiag::FleetAggregator& diagnosis() const { return diag_; }

  /// Closed-loop recovery actuation driven by the diagnosis above:
  /// converged per-slot suspects climb the §5 escalation ladder over
  /// kRecover/kRecoverAck (v3 links only). Ticked from poll() when
  /// enabled; tests may tick it directly at a chosen virtual time.
  RecoveryOrchestrator& recovery() { return recovery_; }
  const RecoveryOrchestrator& recovery() const { return recovery_; }

  EventLoop& loop() { return loop_; }

  // -- durability ----------------------------------------------------------
  /// Crash simulation for restart testing: abandon the journal without
  /// syncing or checkpointing, hard-drop every connection without
  /// goodbye frames, and release the listener. The process survives;
  /// the hub object is dead. A fresh hub on the same journal dir must
  /// recover to the pre-crash state.
  void simulate_crash();
  /// How the last start() recovered (attempted=false when the journal
  /// is disabled or was already recovered).
  const journal::JournalRecoveryInfo& journal_recovery() const { return recovery_info_; }
  /// The live journal, or null when disabled.
  journal::HubJournal* journal() { return journal_.get(); }

 private:
  struct Slot {
    std::string name;
    ipc::ProcessSupervisor supervisor;
    std::shared_ptr<std::atomic<bool>> gate;
    HubConnection* conn = nullptr;  ///< Live claimed connection, or null.
    std::int64_t earliest_reconnect_ns = 0;
    std::int64_t up_since_ns = 0;  ///< Wall stamp of the current claim.
    /// Consecutive sessions that crashed before surviving one liveness
    /// window — the hub-side crash-loop detector (see slot_down).
    int unstable_downs = 0;
    std::uint64_t probe_nonce = 0;
    std::int64_t probe_sent_ns = 0;
    bool probe_outstanding = false;
    bool acked_since_probe = true;  ///< No miss on the first probe.
    runtime::SimTime watermark = 0;
    std::uint32_t seq = 0;  ///< Outbound sequence toward this slot.
  };

  /// One accepted connection and its hub-side protocol state.
  struct Peer {
    std::unique_ptr<HubConnection> conn;
    Slot* slot = nullptr;   ///< Null until the kHello claims a slot.
    bool orderly = false;   ///< Peer announced kShutdown — not an outage.
  };

  void on_accept_ready(std::uint32_t events);
  void on_frame(Peer* peer, const ipc::Frame& f);
  void on_close(Peer* peer, CloseReason reason);
  void handle_hello(Peer* peer, const ipc::Frame& f);
  void reject(Peer* peer, const std::string& why);
  void probe_tick();
  /// Live teardown: backoff charges, journal record, outage report.
  void slot_down(Slot& slot, bool orderly);
  /// The replayable part of each slot transition, shared by the live
  /// path, journal replay and the post-replay sweep. `failed` is the
  /// supervisor's permanent-failure verdict: it retires the slot.
  void apply_slot_up(Slot& slot, std::uint8_t version);
  void apply_slot_down(Slot& slot, bool orderly, bool failed);
  /// Fold one post-handshake state-bearing frame into the hub. Shared
  /// between the live path (after journaling) and replay.
  void apply_frame(Slot& slot, const ipc::Frame& f);
  void ingest(Slot& slot, const ipc::Frame& f);
  void auto_advance();
  void reap();
  void trace(runtime::TraceLevel level, const std::string& msg);

  // journal::ReplaySink — re-fold journaled inputs through the same
  // members the live path mutates.
  void replay_frame(const std::string& slot, const ipc::Frame& f) override;
  void replay_slot_up(const std::string& slot, std::uint8_t version) override;
  void replay_slot_down(const std::string& slot, bool orderly, bool failed) override;
  void replay_tick(runtime::SimTime now) override;

  // journal::Checkpointable — the hub's own slot table.
  std::string checkpoint_name() const override { return "hub.slots"; }
  std::uint32_t checkpoint_version() const override { return 1; }
  void save_state(journal::Encoder& out) const override;
  bool load_state(journal::Decoder& in, std::uint32_t version) override;

  /// Load the latest checkpoint + replay the WAL tail, fail-closed.
  bool recover_from_journal();

  HubConfig config_;
  EventLoop loop_;
  core::ShardedFleet fleet_;
  runtime::MetricsRegistry metrics_;
  fleetdiag::FleetAggregator diag_;
  RecoveryOrchestrator recovery_;
  std::unique_ptr<journal::HubJournal> journal_;
  journal::JournalRecoveryInfo recovery_info_;
  /// Checkpoint participants in load order: diagnosis before recovery
  /// (the orchestrator reads the aggregator), the hub's slots last.
  std::vector<journal::Checkpointable*> journal_parts_;
  int listen_fd_ = -1;
  EventLoop::TimerId probe_timer_ = 0;
  bool stopping_ = false;

  std::map<std::string, std::unique_ptr<Slot>> slots_;
  std::unordered_map<Peer*, std::unique_ptr<Peer>> connections_;
  std::vector<std::unique_ptr<Peer>> dead_;  ///< Reaped at a safe point.

  std::uint64_t events_ingested_ = 0;
  std::uint64_t nonce_counter_ = 0;
  IngestTap ingest_tap_;
  std::vector<core::ErrorReport> link_errors_;
  runtime::TraceLog* trace_ = nullptr;

  // hub.* instruments (shared across connections).
  ConnectionCounters conn_counters_;
  runtime::Counter* spectra_frames_ = nullptr;
  runtime::Gauge* connections_gauge_ = nullptr;
  runtime::Counter* accepted_ = nullptr;
  runtime::Counter* rejected_ = nullptr;
  runtime::Counter* evicted_ = nullptr;
  runtime::Counter* outages_ = nullptr;
  runtime::Counter* probes_ = nullptr;
  runtime::Histogram* rtt_ns_ = nullptr;
};

}  // namespace trader::hub
