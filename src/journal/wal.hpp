// Append-only segmented write-ahead log for the awareness hub.
//
// The hub is the fleet's brain — SFL counters, escalation-ladder
// positions, supervisor watermarks — and a crash must not lobotomize
// it. Every externally-caused state mutation (ingested frame, slot
// up/down transition, recovery tick boundary) is appended here
// *before* it is applied, so a restarted hub can re-fold the exact
// input stream and arrive at bit-identical state (replay.hpp).
//
// On-disk format: fields through the byte codec the wire protocol also
// uses (journal/codec.hpp — explicit little-endian, fail-closed
// parsing), sealed with the journal's own checksum, FNV-1a 32, kept so
// the on-disk format stays byte-for-byte stable. The wire frames that
// kFrame records carry keep their own CRC32C, checked again at replay.
//
//   segment file:  wal-<first_seq, 20-digit decimal>.log
//   record:        u32 magic "WALR"
//                  u32 checksum        FNV-1a 32 over the body bytes
//                  u32 body_len        <= kMaxWalBody
//                  body:
//                    u64 seq           monotonic, gapless across segments
//                    u8  type          WalRecordType
//                    i64 time          virtual timestamp (microseconds)
//                    str slot          u32 len + bytes (may be empty)
//                    blob payload      u32 len + bytes (type-specific)
//
// Segments rotate by size; the filename carries the first sequence
// number it holds so recovery can order segments lexicographically and
// retirement can drop segments fully covered by a checkpoint without
// opening them.
//
// Recovery semantics (the corruption contract, mirrored from the
// ipc_test frame-corruption sweep):
//   - a torn tail — the physically last record cut short or
//     checksum-dirty with nothing valid after it — is the expected
//     crash signature: scan_wal reports kTornTail, optionally
//     truncates the file back to the last valid record, and replay
//     proceeds on the surviving prefix;
//   - anything else (bad record in a non-final segment, a sequence
//     gap, or a corrupt record *followed by* a validating one) means
//     the log lies about history: kCorrupt, and recovery fails closed
//     rather than restoring guessed state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/sim_time.hpp"

namespace trader::journal {

/// Record magic, "WALR" little-endian.
inline constexpr std::uint32_t kWalMagic = 0x524c4157;

/// Upper bound on one record body. The largest legitimate record is a
/// journaled wire frame (header + kMaxFramePayload = 64 KiB) plus slot
/// name and framing; a header announcing more is corruption, not data.
inline constexpr std::size_t kMaxWalBody = 128 * 1024;

/// Fixed per-record header: magic + checksum + body length.
inline constexpr std::size_t kWalRecordHeader = 12;

/// What one WAL record describes.
enum class WalRecordType : std::uint8_t {
  kFrame = 1,     ///< One ingested wire frame (payload = encoded frame bytes).
  kSlotUp = 2,    ///< Slot handshake success (payload = u8 negotiated version).
  kSlotDown = 3,  ///< Slot disconnect (payload = u8 flags: bit 0 orderly, bit 1 failed).
  kTick = 4,      ///< Recovery tick boundary (empty payload; time in body).
};

const char* to_string(WalRecordType t);

/// When appends reach the platter.
enum class FsyncPolicy : std::uint8_t {
  kNone = 0,         ///< Never fsync (page cache only; fastest, weakest).
  kBatch = 1,        ///< fsync once per ingest batch (hub poll) — the default.
  kEveryRecord = 2,  ///< fsync after every append (strongest, slowest).
};

const char* to_string(FsyncPolicy p);

/// One decoded record, as delivered to the scan callback.
struct WalRecord {
  std::uint64_t seq = 0;
  WalRecordType type = WalRecordType::kFrame;
  runtime::SimTime time = 0;
  std::string slot;
  std::vector<std::uint8_t> payload;
};

struct WalWriterStats {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;     ///< Bytes appended (headers included).
  std::uint64_t segments = 0;  ///< Segment files opened.
  std::uint64_t syncs = 0;     ///< fsync calls issued.
  std::uint64_t errors = 0;    ///< Failed appends / syncs.
};

/// Single-threaded appender (the hub's event loop owns it).
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Start (or resume) writing under `dir`, with the next record taking
  /// sequence number `next_seq`. Always begins a fresh segment named
  /// after `next_seq`; an existing file of that name is truncated —
  /// only reachable for the empty/torn leftovers of a crashed writer,
  /// because a segment holding valid records at `next_seq` would have
  /// made recovery hand us a larger `next_seq`.
  bool open(const std::string& dir, std::uint64_t next_seq,
            std::size_t segment_bytes, FsyncPolicy fsync);

  bool is_open() const { return fd_ >= 0; }

  /// Append one record; returns its sequence number, or 0 on error.
  std::uint64_t append(WalRecordType type, const std::string& slot,
                       runtime::SimTime time, const std::uint8_t* payload,
                       std::size_t payload_len);

  /// Batch boundary: flush under FsyncPolicy::kBatch (no-op otherwise
  /// unless `force`, used before checkpoints — a checkpoint must never
  /// outlive on disk the WAL records it claims to cover).
  bool sync(bool force = false);

  void close();

  /// Close without the final fsync — crash simulation. Whatever the
  /// kernel already flushed is what a scan will see, as after SIGKILL.
  void close_nosync();

  /// Sequence number of the last appended record (0 before any).
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  std::uint64_t next_seq() const { return next_seq_; }
  const WalWriterStats& stats() const { return stats_; }

 private:
  bool open_segment(std::uint64_t first_seq);

  int fd_ = -1;
  std::string dir_;
  std::size_t segment_bytes_ = 1 << 20;
  FsyncPolicy fsync_ = FsyncPolicy::kBatch;
  std::uint64_t next_seq_ = 1;
  std::size_t current_bytes_ = 0;
  std::uint64_t current_records_ = 0;
  bool dirty_ = false;
  WalWriterStats stats_;
};

/// How a scan of the on-disk log ended.
enum class WalScanStatus : std::uint8_t {
  kOk = 0,        ///< Every byte parsed clean.
  kTornTail = 1,  ///< Valid prefix + torn final record(s) — crash signature.
  kCorrupt = 2,   ///< Mid-log corruption or sequence gap: fail closed.
  kIoError = 3,   ///< Could not read the directory / a segment.
};

const char* to_string(WalScanStatus s);

struct WalScanResult {
  WalScanStatus status = WalScanStatus::kOk;
  std::uint64_t records = 0;        ///< Records delivered (seq > after_seq).
  std::uint64_t last_seq = 0;       ///< Highest valid seq seen (0 = none).
  std::size_t truncated_bytes = 0;  ///< Torn tail dropped (repair mode).
  std::string error;                ///< Human-readable cause when !usable().

  /// True when replay may proceed (clean log or repaired torn tail).
  bool usable() const {
    return status == WalScanStatus::kOk || status == WalScanStatus::kTornTail;
  }
};

/// Scan every record in `dir`, validating magic/checksum/structure and
/// sequence continuity from the first surviving segment onward, and
/// deliver records with seq > after_seq to `fn` in order (`fn` may be
/// null; returning false stops the scan early with the current
/// result). `after_seq` is the checkpoint coverage: a log whose first
/// record starts beyond after_seq + 1 cannot bridge the gap and is
/// kCorrupt. With `repair_tail`, a torn tail is physically truncated
/// back to the last valid record so the next writer appends cleanly.
WalScanResult scan_wal(const std::string& dir, std::uint64_t after_seq,
                       bool repair_tail,
                       const std::function<bool(const WalRecord&)>& fn);

/// Segment file paths under `dir`, sorted by first sequence number.
std::vector<std::string> wal_segments(const std::string& dir);

/// Delete segments whose records are all covered by a checkpoint at
/// `covered_seq` (i.e. the *next* segment starts at or before
/// covered_seq + 1). The active (last) segment is never deleted.
/// Returns the number of segments removed.
std::size_t retire_wal_segments(const std::string& dir,
                                std::uint64_t covered_seq);

/// Delete every journal artifact (WAL segments, checkpoints, tmp
/// files) under `dir`. Returns the number of files removed.
std::size_t purge_journal_dir(const std::string& dir);

/// mkdir -p. True when the directory exists afterwards.
bool ensure_dir(const std::string& dir);

}  // namespace trader::journal
