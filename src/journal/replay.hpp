// Crash recovery for the awareness hub: checkpoint load + WAL replay.
//
// HubJournal ties the two durability layers together behind one
// object the hub owns when `HubConfig.journal.enabled`:
//
//   recover()       load the newest valid checkpoint into the hub's
//                   Checkpointable parts, then re-fold the WAL tail
//                   (records after the checkpoint's coverage) through
//                   a ReplaySink — the same ingest/apply code paths
//                   the live hub uses, which is what makes restart
//                   state bit-identical to the uninterrupted run.
//   append_*()      write-ahead appends, called *before* the hub
//                   applies the corresponding mutation.
//   on_batch_end()  batch boundary: group fsync (FsyncPolicy::kBatch)
//                   and cadence checkpointing. Called when every
//                   appended record has been applied, so a checkpoint
//                   taken here covers exactly writer.last_seq().
//   abandon()       crash simulation: drop the writer cold — no sync,
//                   no checkpoint; the bytes already on disk are
//                   exactly what a SIGKILL would have left.
//
// Recovery fails closed: a mid-log corrupt WAL or an unloadable
// checkpoint section refuses to start the hub rather than serving
// guessed state (the monitor must be at least as dependable as the
// fleet it watches — restoring fiction would be worse than amnesia).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipc/wire.hpp"
#include "journal/checkpoint.hpp"
#include "journal/wal.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_time.hpp"

namespace trader::journal {

/// Durability knobs, hung off HubConfig.
struct JournalConfig {
  bool enabled = false;
  /// Directory for WAL segments + checkpoints (one hub per dir).
  std::string dir;
  /// Segment rotation threshold.
  std::size_t segment_bytes = 1 << 20;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Take a checkpoint after this many WAL records (0 = only on stop).
  std::uint64_t checkpoint_every_records = 4096;
  /// Snapshots kept on disk (older ones retired after each write).
  std::size_t retain_checkpoints = 2;
};

/// The hub-side application surface replay drives. Implemented by
/// AwarenessHub; each method calls the apply step the live path calls
/// (frame apply, slot up, slot down), and a replayed tick is the live
/// tick: its commands are decided and committed as before, and its
/// frames go to the live send, which drops them (no slot has a
/// connection during replay).
class ReplaySink {
 public:
  virtual ~ReplaySink() = default;
  virtual void replay_frame(const std::string& slot, const ipc::Frame& frame) = 0;
  virtual void replay_slot_up(const std::string& slot, std::uint8_t version) = 0;
  /// `failed`: the live hub's supervisor gave up on the slot for good.
  virtual void replay_slot_down(const std::string& slot, bool orderly, bool failed) = 0;
  virtual void replay_tick(runtime::SimTime now) = 0;
};

/// What recover() did — surfaced via AwarenessHub::journal_recovery().
struct JournalRecoveryInfo {
  bool attempted = false;
  bool ok = true;
  bool from_checkpoint = false;
  std::uint64_t checkpoint_seq = 0;    ///< WAL coverage of the loaded snapshot.
  std::uint64_t replayed_records = 0;  ///< WAL tail records re-folded.
  std::size_t truncated_bytes = 0;     ///< Torn tail repaired away.
  WalScanStatus wal_status = WalScanStatus::kOk;
  std::string error;
};

class HubJournal {
 public:
  HubJournal(JournalConfig config, runtime::MetricsRegistry* metrics);

  const JournalConfig& config() const { return config_; }

  /// Restore `parts` + re-fold the WAL tail into `sink`, repair any
  /// torn tail, then arm the writer for new appends. Call once before
  /// the hub starts listening. On !info.ok the writer stays disarmed
  /// and the hub must refuse to start (fail closed).
  JournalRecoveryInfo recover(const std::vector<Checkpointable*>& parts,
                              ReplaySink& sink);

  /// Write-ahead appends (no-ops until recover() armed the writer, and
  /// after abandon()).
  void append_frame(const std::string& slot, const ipc::Frame& frame);
  void append_slot_up(const std::string& slot, std::uint8_t version,
                      runtime::SimTime now);
  void append_slot_down(const std::string& slot, bool orderly, bool failed,
                        runtime::SimTime now);
  void append_tick(runtime::SimTime now);

  /// Batch boundary (end of one hub poll): kBatch fsync + cadence
  /// checkpoint. All appended records must be applied by now.
  void on_batch_end(const std::vector<Checkpointable*>& parts);

  /// Unconditional snapshot at the current WAL position; retires
  /// fully-covered segments on success. The WAL is force-synced first
  /// so the snapshot never claims records the platter does not hold.
  bool checkpoint_now(const std::vector<Checkpointable*>& parts);

  /// Simulated SIGKILL: close the writer without syncing or
  /// checkpointing and ignore all further appends.
  void abandon();

  bool active() const { return writer_.is_open(); }
  std::uint64_t last_seq() const { return writer_.last_seq(); }
  std::uint64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }
  const WalWriterStats& wal_stats() const { return writer_.stats(); }
  const CheckpointStoreStats& checkpoint_stats() const {
    return store_.stats();
  }

 private:
  void append(WalRecordType type, const std::string& slot,
              runtime::SimTime time, const std::uint8_t* payload,
              std::size_t payload_len);

  JournalConfig config_;
  WalWriter writer_;
  CheckpointStore store_;
  std::uint64_t records_since_checkpoint_ = 0;
  bool abandoned_ = false;

  // hub.journal.* — excluded from golden traces like all hub.* metrics
  // (wall-clock and I/O scoped, not part of the determinism surface).
  runtime::Counter* appends_ = nullptr;
  runtime::Counter* append_bytes_ = nullptr;
  runtime::Counter* append_errors_ = nullptr;
  runtime::Counter* checkpoints_ = nullptr;
  runtime::Counter* recoveries_ = nullptr;
  runtime::Counter* replayed_ = nullptr;
  runtime::Counter* truncated_bytes_ = nullptr;
};

}  // namespace trader::journal
