// Versioned binary state snapshots for the durable hub.
//
// A checkpoint bounds recovery work: instead of replaying the WAL from
// the beginning of time, a restarted hub loads the newest valid
// snapshot and replays only the WAL records after its coverage
// sequence. Components opt in through the Checkpointable interface —
// the fleet aggregator (SFL counters), the recovery orchestrator
// (ladder positions, tokens, cooldowns, quarantine set) and the hub's
// own per-slot supervisor/watermark state each serialize themselves
// into a named, versioned section of one container file.
//
// File format (fields through the byte codec the WAL and the wire share,
// journal/codec.hpp; the body sealed with FNV-1a 32 like a WAL record):
//
//   file name:  ckpt-<wal_seq, 20-digit decimal>.bin
//   header:     u32 magic "TRCK" | u32 format | u32 checksum | u32 body_len
//   body:       u64 wal_seq        last WAL record this snapshot covers
//               u32 part_count
//               per part: str name | u32 version | blob state
//
// Writes are atomic: encode, write to ckpt-<seq>.tmp, fsync, rename
// into place, fsync the directory — a crash mid-write leaves either
// the old world or the new one, never a half-snapshot. Loads walk
// candidates newest-first and fall back to an older file when the
// container fails validation; a container that validates but whose
// sections refuse to load (version/logic mismatch) fails the whole
// recovery closed — that is a software problem, not a crash artifact,
// and guessing state would forfeit the determinism guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "journal/codec.hpp"

namespace trader::journal {

inline constexpr std::uint32_t kCheckpointMagic = 0x4b435254;  // "TRCK"
inline constexpr std::uint32_t kCheckpointFormat = 1;

/// A component whose hub-side state survives crashes. save_state must
/// capture everything load_state needs to reconstruct the component
/// bit-identically; load_state fully overwrites current state (it may
/// be called on a dirty instance during fallback) and returns false on
/// any structural or version mismatch.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual std::string checkpoint_name() const = 0;
  virtual std::uint32_t checkpoint_version() const = 0;
  virtual void save_state(Encoder& out) const = 0;
  virtual bool load_state(Decoder& in, std::uint32_t version) = 0;
};

struct CheckpointStoreStats {
  std::uint64_t written = 0;
  std::uint64_t load_attempts = 0;  ///< Candidate files examined.
  std::uint64_t load_failures = 0;  ///< Candidates rejected (corrupt).
  std::uint64_t retired = 0;        ///< Old snapshots deleted by retention.
};

class CheckpointStore {
 public:
  CheckpointStore(std::string dir, std::size_t retain);

  /// Snapshot all `parts` at WAL coverage `wal_seq`, atomically, then
  /// apply retention. False (with `error`) on any I/O failure.
  bool write(std::uint64_t wal_seq, const std::vector<Checkpointable*>& parts,
             std::string* error);

  /// Restore `parts` from the newest valid snapshot; `*wal_seq`
  /// receives its coverage. Returns true on success. On false:
  /// an empty `*error` means no usable snapshot exists (fresh start);
  /// a non-empty `*error` means a checksum-valid snapshot exists whose
  /// sections would not load — the caller must fail closed.
  bool load_latest(const std::vector<Checkpointable*>& parts,
                   std::uint64_t* wal_seq, std::string* error);

  /// Coverage sequences of the snapshots on disk, ascending.
  std::vector<std::uint64_t> available() const;

  const CheckpointStoreStats& stats() const { return stats_; }

 private:
  std::string dir_;
  std::size_t retain_;
  CheckpointStoreStats stats_;
};

}  // namespace trader::journal
