// Wire protocol for the out-of-process SUO link.
//
// The paper's awareness framework runs the System Under Observation as
// a separate Linux process connected over Unix domain sockets (Fig. 2).
// In this repo that boundary is the hub link: a SUO claims a slot of
// the AwarenessHub (src/hub) and pushes its events, spectra and
// recovery acks; the hub probes it and sends recovery commands. This
// module defines the byte-level contract that crosses that boundary.
// Frames are length-prefixed and versioned:
//
//   offset size field
//   0      4    magic 0x54524452 ("TRDR", little-endian)
//   4      1    protocol version
//   5      1    frame type
//   6      2    reserved (must be zero)
//   8      4    sequence number
//   12     8    virtual timestamp (microseconds, signed)
//   20     4    payload length (<= kMaxFramePayload)
//   24     4    payload checksum (CRC32C over the payload bytes)
//   28     ...  payload
//
// Fields use the project's one byte codec (journal/codec.hpp), which the
// WAL and checkpoints share; each format seals its own bytes, frames
// with CRC32C over the payload. Strings are u32 length + bytes;
// runtime::Value is a 1-byte tag (the variant index) + payload.
// Protocol v2 adds the kSpectrum frame (batched SFL spectra toward the
// hub, see SpectrumStep below);
// protocol v3 adds the kRecover / kRecoverAck pair (hub-commanded
// recovery actuation on a remote SUO). Peers negotiate the version
// through the kHello [min,max] range exchange and only send feature
// frames on links that negotiated the matching minimum
// (kSpectrumMinVersion / kRecoverMinVersion). Type numbers 5 and 6
// are reserved and decode as kBadType.
// Decoding fails closed: any malformed
// header or payload poisons the decoder until reset() — a frame is
// either delivered whole and checksum-clean or not at all, so a
// corrupted stream can never leak partial state into the monitor.
// Sequence number and timestamp are deliberately outside the checksum
// footprint only in the sense that the checksum covers the payload;
// header integrity is enforced field-by-field (magic, version range,
// known type, zero reserved bits, bounded length).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::ipc {

inline constexpr std::uint32_t kMagic = 0x54524452;  // "TRDR"
inline constexpr std::uint8_t kMinProtocolVersion = 1;
inline constexpr std::uint8_t kProtocolVersion = 3;
/// First protocol version that carries kSpectrum frames. A peer whose
/// negotiated version is lower must not send them (and a v1 decoder
/// would fail closed on the unknown type if it did).
inline constexpr std::uint8_t kSpectrumMinVersion = 2;
/// First protocol version that carries kRecover / kRecoverAck frames.
/// The hub must never send a recovery command to a peer that
/// negotiated lower — a v2 decoder fails closed on the unknown type.
inline constexpr std::uint8_t kRecoverMinVersion = 3;
inline constexpr std::size_t kHeaderSize = 28;
/// Upper bound on payload size; a header announcing more is rejected
/// before any allocation happens (flood protection).
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;

/// Frame taxonomy of the SUO link. Type numbers 5 and 6 are reserved:
/// they carried the retired lockstep kControl / kControlAck pair, and a
/// frame that still uses them fails closed with kBadType.
enum class FrameType : std::uint8_t {
  kHello = 1,      ///< SUO -> hub: version range + slot name.
  kHelloAck,       ///< Hub -> SUO: negotiated version.
  kInputEvent,     ///< SUO input event (user action observed).
  kOutputEvent,    ///< SUO observable update.
  kHeartbeat = 7,  ///< Liveness probe (either direction).
  kHeartbeatAck,   ///< Liveness echo.
  kShutdown,       ///< Orderly teardown or handshake rejection.
  kSpectrum,       ///< SUO -> hub: batched SFL spectra (since v2).
  kRecover,        ///< Hub -> SUO: targeted recovery command (since v3).
  kRecoverAck,     ///< SUO -> hub: recovery outcome (since v3).
};

const char* to_string(FrameType t);

/// One program spectrum inside a kSpectrum frame: the sorted-unique ids
/// of the blocks executed during one scenario step, plus whether the
/// step showed an error (§4.4 Zoeteweij et al. — the error-vector bit).
///
/// Payload grammar (strict, fail-closed like every other frame):
///   u32 block_count            id universe; every id must be < this
///   u32 step_count
///   per step: u8  error        0 or 1, anything else is malformed
///             u32 executed     number of block ids
///             u32[executed]    strictly ascending block ids
struct SpectrumStep {
  bool error = false;
  std::vector<std::uint32_t> blocks;  ///< Strictly ascending, < block_count.

  friend bool operator==(const SpectrumStep& a, const SpectrumStep& b) {
    return a.error == b.error && a.blocks == b.blocks;
  }
};

/// kSpectrum payload sizes, the one owner of the grammar above: the
/// encoder sizes its write with them and the reporter budgets frames
/// with them. The payload header is block_count + step_count.
inline constexpr std::size_t kSpectrumHeaderBytes = 8;
/// Bytes of one step carrying `ids` block ids (error byte + id count +
/// the ids); spectrum_step_bytes(0) is the smallest step.
constexpr std::size_t spectrum_step_bytes(std::size_t ids) { return 1 + 4 + 4 * ids; }

/// kRecover payload grammar (strict, fail-closed):
///   u8  action         recovery::RecoveryAction ordinal; give-up (4)
///                      never crosses the wire — the hub quarantines
///                      locally — so any value >= 4 is malformed
///   u64 token          idempotency token; the ack must echo it
///   u32 block          top suspect block id (SUO resolves component)
///   str unit           hub's belief of the suspect component name
///
/// kRecoverAck payload grammar:
///   u8  action         echoed command action, same < 4 bound
///   u64 token          echoed idempotency token
///   u8  ok             0 or 1, anything else is malformed
///   str unit           echoed unit
///   str detail         free-form outcome note
///
/// One decoded (or to-be-encoded) protocol frame. Only the fields of
/// the frame's type are meaningful; the rest stay default.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint8_t version = kProtocolVersion;
  std::uint32_t seq = 0;
  runtime::SimTime time = 0;

  runtime::Event event;                           ///< kInputEvent / kOutputEvent.
  bool ok = true;                                 ///< kRecoverAck status.
  std::string detail;                             ///< Ack detail / hello peer / shutdown reason.
  std::uint8_t min_version = kMinProtocolVersion; ///< kHello / kHelloAck.
  std::uint8_t max_version = kProtocolVersion;    ///< kHello / kHelloAck.
  std::uint64_t nonce = 0;                        ///< kHeartbeat / kHeartbeatAck.
  std::uint32_t block_count = 0;                  ///< kSpectrum id universe.
  std::vector<SpectrumStep> spectra;              ///< kSpectrum batch.
  std::uint8_t action = 0;                        ///< kRecover / kRecoverAck ladder rung.
  std::uint64_t token = 0;                        ///< kRecover / kRecoverAck idempotency.
  std::uint32_t block = 0;                        ///< kRecover suspect block id.
  std::string unit;                               ///< kRecover / kRecoverAck component.
};

/// CRC32C (Castagnoli: reflected polynomial 0x82F63B78, init and
/// xorout ~0) over a byte range — the checksum every frame payload
/// carries. It detects every burst error of up to 32 bits. On x86-64
/// CPUs with SSE4.2 it runs on the `crc32` instruction (chosen once, at
/// the first call); elsewhere it is crc32c_reference().
std::uint32_t crc32c(const std::uint8_t* data, std::size_t n);

/// Table-driven CRC32C (slicing-by-8: eight bytes per round, then the
/// tail byte by byte): the portable fallback of crc32c() and the
/// reference the tests hold the hardware path to.
std::uint32_t crc32c_reference(const std::uint8_t* data, std::size_t n);

/// Encode a frame. Returns an empty vector when the payload would
/// exceed kMaxFramePayload (the caller counts an encode error — an
/// oversized observable must not tear the stream mid-frame).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Why decoding stopped.
enum class DecodeStatus : std::uint8_t {
  kOk,            ///< A frame was produced.
  kNeedMore,      ///< Partial frame buffered; feed more bytes.
  kBadMagic,
  kBadVersion,    ///< Header version outside [kMinProtocolVersion, kProtocolVersion].
  kBadType,
  kFrameTooLarge,
  kBadChecksum,
  kMalformed,     ///< Reserved bits set or payload structure invalid.
};

const char* to_string(DecodeStatus s);

/// True for the statuses that poison the stream (everything except
/// kOk / kNeedMore).
bool is_decode_error(DecodeStatus s);

/// Highest protocol version both ranges support, or 0 when the ranges
/// are disjoint (handshake must be rejected).
std::uint8_t negotiate_version(std::uint8_t local_min, std::uint8_t local_max,
                               std::uint8_t remote_min, std::uint8_t remote_max);

/// Streaming frame decoder. Feed arbitrary byte chunks; next() yields
/// complete frames. Fails closed: after the first error status the
/// decoder refuses further work until reset(), because a framing error
/// means byte alignment is lost and everything after it is garbage.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);

  /// Decode the next buffered frame into `out`. kOk fills `out`;
  /// kNeedMore leaves it untouched; an error poisons the decoder.
  DecodeStatus next(Frame& out);

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buf_.size() - pos_; }
  void reset();

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

}  // namespace trader::ipc
