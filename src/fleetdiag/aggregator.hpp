// FleetAggregator: hub-side online spectrum-based diagnosis.
//
// The hub already sees every SUO's events; this closes the paper's §5
// observe -> diagnose loop by making it see their *spectra* too. Each
// kSpectrum report folds once, into the slot's IncrementalSflCounts, in
// O(blocks touched) — no history rescan — so "which block of THIS set is
// suspect" stays answerable at wire rate (the LOLA unified
// runtime-verification + model-based diagnosis direction, run at ArVI
// fleet scale). "Which block is suspect ACROSS the fleet" is answered on
// demand: fleet_report() and fleet_top_suspects() merge the slots'
// integer counts when called, which is exact, so no report pays for a
// fleet-wide fold nothing in the loop reads.
//
// Rankings: every slot keeps a cached top-k Ochiai suspect list. A
// refresh is one scan of the block span that skips whole chunks of
// blocks that cannot enter the list and computes a score only for a
// block that could (IncrementalSflCounts::top_k). The cache refreshes
// every `refresh_every` reports, which bounds both the refresh cost
// amortized per report and the staleness of a live query. Refreshes
// that change a slot's top-k sequence increment a churn counter — a
// slot whose ranking keeps churning has not converged on a suspect yet,
// and operators can watch that converge through hub.diag.* metrics.
// report() always computes fresh and is bit-identical to an offline
// SflRanker::rank() over the same spectra (the online/offline
// differential the tests pin).
//
// Slot lifecycle mirrors the hub's: state persists across reconnects of
// the same slot (an outage must not amnesia the diagnosis) and is freed
// by retire_slot() when the hub gives up on the SUO. All entry points
// are mutex-guarded so ingest (hub loop thread) and ranking queries
// (operator/bench threads) can overlap safely; a fleet query holds the
// lock only while it merges, and ranks the merged copy after it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "diagnosis/component_ranker.hpp"
#include "diagnosis/incremental.hpp"
#include "ipc/wire.hpp"
#include "journal/checkpoint.hpp"
#include "runtime/metrics.hpp"

namespace trader::fleetdiag {

struct AggregatorConfig {
  /// Suspects kept per ranking (slot and fleet level).
  std::size_t top_k = 10;
  /// Recompute a slot's cached top-k ranking every N of its reports; a
  /// live query is therefore at most N-1 reports stale. 1 = always
  /// fresh.
  std::size_t refresh_every = 1;
};

/// Health rollup of one slot, exported through hub.diag.* gauges.
struct SlotHealth {
  std::string slot;
  std::uint64_t reports = 0;
  std::uint64_t steps = 0;
  std::uint64_t error_steps = 0;
  double error_rate = 0.0;
  std::size_t touched_blocks = 0;
  /// Most suspicious block id at the last refresh (-1 when no ranking).
  std::int64_t top_block = -1;
  double top_score = 0.0;
  /// Refreshes of THIS slot's ranking that changed its top-k sequence.
  /// A converged diagnosis stops churning; the RecoveryOrchestrator's
  /// convergence gate reads this to decide the suspect is stable
  /// enough to act on.
  std::uint64_t churn = 0;
};

class FleetAggregator : public journal::Checkpointable {
 public:
  explicit FleetAggregator(AggregatorConfig config = {},
                           runtime::MetricsRegistry* metrics = nullptr);

  /// Fold one decoded kSpectrum frame into `slot`.
  /// Returns the number of steps accounted. Non-spectrum frames are
  /// ignored (0). Creates the slot on first sight.
  std::size_t ingest(const std::string& slot, const ipc::Frame& frame);

  /// Frameless entry point for in-process producers / tests.
  std::size_t ingest(const std::string& slot, const std::vector<ipc::SpectrumStep>& steps);

  /// Drop a slot's spectra, which also drops them from the fleet view
  /// (the hub calls this when a slot is permanently failed). Returns
  /// false when the slot was unknown.
  bool retire_slot(const std::string& slot);

  std::size_t slot_count() const;
  std::vector<std::string> slots() const;
  bool has_slot(const std::string& slot) const;

  /// Cached top-k suspects (refreshed every refresh_every reports; call
  /// refresh() to force). Empty for unknown slots.
  std::vector<diagnosis::BlockScore> top_suspects(const std::string& slot) const;
  /// Top-k suspects over every slot's spectra, merged when called (the
  /// first top_k entries of fleet_report()).
  std::vector<diagnosis::BlockScore> fleet_top_suspects() const;

  /// Recompute every slot's cached ranking now (returns rankings that
  /// changed).
  std::size_t refresh();

  /// Fresh full ranking — bit-identical to SflRanker::rank() over the
  /// same spectra (the online/offline equivalence surface). The fleet
  /// report ranks the merge of every slot's spectra.
  diagnosis::DiagnosisReport report(const std::string& slot) const;
  diagnosis::DiagnosisReport fleet_report() const;

  /// Fold a slot's block ranking into component suspiciousness via
  /// diagnosis::ComponentRanker (which recoverable unit to restart).
  std::vector<diagnosis::ComponentScore> component_ranking(
      const std::string& slot,
      const std::function<std::string(std::size_t block)>& component_of,
      int top_k_blocks = 3) const;

  SlotHealth health(const std::string& slot) const;
  std::vector<SlotHealth> fleet_health() const;

  // Lifetime stats (mirrored into hub.diag.* counters when a registry
  // was supplied).
  std::uint64_t reports_ingested() const;
  std::uint64_t steps_ingested() const;
  /// Slot refreshes that changed a cached top-k, summed over slots.
  std::uint64_t ranking_churn() const;

  const AggregatorConfig& config() const { return config_; }

  // Checkpointable (the durable hub snapshots the whole aggregator:
  // every slot's counters + churn/lifetime stats; cached top-k rankings
  // are re-derived on load without counting as churn). Config is not
  // persisted; a version 1 image fails to load.
  std::string checkpoint_name() const override { return "fleetdiag"; }
  std::uint32_t checkpoint_version() const override { return 2; }
  void save_state(journal::Encoder& out) const override;
  bool load_state(journal::Decoder& in, std::uint32_t version) override;

 private:
  struct Slot {
    diagnosis::IncrementalSflCounts counts;
    std::uint64_t reports = 0;
    std::uint64_t reports_at_refresh = 0;
    std::uint64_t churn = 0;
    std::vector<diagnosis::BlockScore> top;
    runtime::Gauge* health_gauge = nullptr;
    runtime::Gauge* top_block_gauge = nullptr;
  };

  std::size_t ingest_locked(const std::string& slot_name,
                            const std::vector<ipc::SpectrumStep>& steps);
  /// Refresh one cached ranking; returns true when the top-k changed.
  bool refresh_slot_locked(const std::string& name, Slot& slot);
  /// Every slot's counts merged, under the lock.
  diagnosis::IncrementalSflCounts fleet_counts() const;
  void export_health_locked(const std::string& name, Slot& slot);
  static bool same_blocks(const std::vector<diagnosis::BlockScore>& a,
                          const std::vector<diagnosis::BlockScore>& b);

  AggregatorConfig config_;
  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::uint64_t reports_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t churn_ = 0;

  // hub.diag.* instruments (null without a registry).
  runtime::MetricsRegistry* metrics_ = nullptr;
  runtime::Counter* reports_ctr_ = nullptr;
  runtime::Counter* steps_ctr_ = nullptr;
  runtime::Counter* error_steps_ctr_ = nullptr;
  runtime::Counter* block_updates_ctr_ = nullptr;
  runtime::Counter* refreshes_ctr_ = nullptr;
  runtime::Counter* churn_ctr_ = nullptr;
  runtime::Counter* retired_ctr_ = nullptr;
  runtime::Gauge* slots_gauge_ = nullptr;
};

}  // namespace trader::fleetdiag
