#include "ipc/wire.hpp"

#include "journal/codec.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace trader::ipc {

namespace {

using journal::load_le;

/// Little-endian u32 into already-sized storage; returns the byte after.
std::uint8_t* store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 4;
}

// ---------------------------------------------------------------- checksum

/// Slicing-by-8 tables: kCrc32cTables[0] is the classic byte-wise
/// table, and kCrc32cTables[k][b] is the CRC of byte b followed by k
/// zero bytes, so one round folds eight bytes with eight lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) != 0 ? 0x82F63B78u : 0u);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

#if defined(__x86_64__)
/// Eight bytes per `crc32` instruction, then the tail byte by byte.
/// Unaligned loads go through memcpy, so any start offset works.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(const std::uint8_t* p,
                                                               std::size_t n) {
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using Crc32cFn = std::uint32_t (*)(const std::uint8_t*, std::size_t);

Crc32cFn pick_crc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_reference;
}

}  // namespace

std::uint32_t crc32c_reference(const std::uint8_t* p, std::size_t n) {
  const auto& t = kCrc32cTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c(const std::uint8_t* p, std::size_t n) {
  static const Crc32cFn impl = pick_crc32c();
  return impl(p, n);
}

namespace {

void put_value(journal::Encoder& e, const runtime::Value& v) {
  e.u8(static_cast<std::uint8_t>(v.index()));
  switch (v.index()) {
    case 0:
      e.i64(std::get<std::int64_t>(v));
      break;
    case 1:
      e.u64(std::bit_cast<std::uint64_t>(std::get<double>(v)));
      break;
    case 2:
      e.str(std::get<std::string>(v));
      break;
    case 3:
      e.boolean(std::get<bool>(v));
      break;
  }
}

runtime::Value read_value(journal::Decoder& d) {
  switch (d.u8()) {
    case 0:
      return d.i64();
    case 1:
      return std::bit_cast<double>(d.u64());
    case 2:
      return d.str();
    case 3:
      return d.boolean();  // strict: a bool byte is 0 or 1
    default:
      d.fail();
      return std::int64_t{0};
  }
}

void put_event(journal::Encoder& e, const runtime::Event& ev) {
  e.str(ev.topic);
  e.str(ev.name);
  e.u32(static_cast<std::uint32_t>(ev.fields.size()));
  for (const auto& [key, value] : ev.fields) {
    e.str(key);
    put_value(e, value);
  }
}

bool read_event(journal::Decoder& d, runtime::Event& ev) {
  ev.topic = d.str();
  ev.name = d.str();
  const std::uint32_t count = d.u32();
  if (!d.ok() || count > kMaxFramePayload) return false;
  for (std::uint32_t i = 0; i < count && d.ok(); ++i) {
    std::string key = d.str();
    runtime::Value value = read_value(d);
    if (d.ok()) ev.fields.emplace(std::move(key), std::move(value));
  }
  return d.ok();
}

/// The reserved gap (5, 6) between kOutputEvent and kHeartbeat is not a
/// known type.
bool known_type(std::uint8_t t) {
  return (t >= static_cast<std::uint8_t>(FrameType::kHello) &&
          t <= static_cast<std::uint8_t>(FrameType::kOutputEvent)) ||
         (t >= static_cast<std::uint8_t>(FrameType::kHeartbeat) &&
          t <= static_cast<std::uint8_t>(FrameType::kRecoverAck));
}

/// Recovery actions are strict: give-up (4) is a hub-local verdict and
/// never crosses the wire, so the on-wire action space is exactly the
/// four actuatable rungs of the §5 ladder.
constexpr std::uint8_t kMaxWireRecoveryAction = 3;

void put_spectra(journal::Encoder& e, const Frame& f) {
  // Sized once, then written in place.
  std::size_t bytes = kSpectrumHeaderBytes;
  for (const SpectrumStep& step : f.spectra) bytes += spectrum_step_bytes(step.blocks.size());
  std::uint8_t* p = e.extend(bytes);
  p = store_u32(p, f.block_count);
  p = store_u32(p, static_cast<std::uint32_t>(f.spectra.size()));
  for (const SpectrumStep& step : f.spectra) {
    *p++ = step.error ? 1 : 0;
    p = store_u32(p, static_cast<std::uint32_t>(step.blocks.size()));
    for (const std::uint32_t b : step.blocks) p = store_u32(p, b);
  }
}

/// Spectrum payloads are strict: the error byte is 0/1, ids are
/// strictly ascending and inside the announced block universe — a
/// corrupted spectrum must never feed a phantom block into a ranking.
bool read_spectra(journal::Decoder& d, Frame& out) {
  out.block_count = d.u32();
  const std::uint32_t steps = d.u32();
  // A step count the rest of the payload cannot hold is refused before
  // anything is reserved for it.
  if (!d.ok() || steps > d.remaining() / spectrum_step_bytes(0)) return false;
  out.spectra.reserve(steps);
  for (std::uint32_t s = 0; s < steps && d.ok(); ++s) {
    SpectrumStep step;
    const std::uint8_t err = d.u8();
    if (err > 1) return false;
    step.error = err == 1;
    const std::uint32_t executed = d.u32();
    // One bounds check covers every id of the step.
    const std::uint8_t* ids = d.raw(std::size_t{executed} * 4);
    if (ids == nullptr) return false;
    step.blocks.resize(executed);
    std::uint32_t* blocks = step.blocks.data();
    for (std::uint32_t i = 0; i < executed; ++i) {
      blocks[i] = load_le<std::uint32_t>(ids + 4 * std::size_t{i});
    }
    // Copy first, then check in one branch-free pass (both loops
    // vectorize): ids strictly ascending, so all are inside the universe
    // when the last one is.
    std::uint32_t disorder = 0;
    for (std::uint32_t i = 1; i < executed; ++i) {
      disorder |= static_cast<std::uint32_t>(blocks[i] <= blocks[i - 1]);
    }
    if (disorder != 0 || (executed > 0 && blocks[executed - 1] >= out.block_count)) return false;
    out.spectra.push_back(std::move(step));
  }
  return d.ok();
}

/// Decode one payload; returns false on any structural violation
/// (including trailing bytes — a valid frame consumes exactly its
/// announced length).
bool decode_payload(FrameType type, const std::uint8_t* p, std::size_t n, Frame& out) {
  journal::Decoder r(p, n);
  switch (type) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
      out.min_version = r.u8();
      out.max_version = r.u8();
      out.detail = r.str();
      break;
    case FrameType::kInputEvent:
    case FrameType::kOutputEvent:
      if (!read_event(r, out.event)) return false;
      // The timestamp rides in the frame header (senders set f.time from
      // ev.timestamp), not the payload — restore it so consumers see the
      // publisher's virtual clock (watermarks, auto-advance).
      out.event.timestamp = out.time;
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
      out.nonce = r.u64();
      break;
    case FrameType::kShutdown:
      out.detail = r.str();
      break;
    case FrameType::kSpectrum:
      if (!read_spectra(r, out)) return false;
      break;
    case FrameType::kRecover:
      out.action = r.u8();
      if (out.action > kMaxWireRecoveryAction) return false;
      out.token = r.u64();
      out.block = r.u32();
      out.unit = r.str();
      break;
    case FrameType::kRecoverAck: {
      out.action = r.u8();
      if (out.action > kMaxWireRecoveryAction) return false;
      out.token = r.u64();
      out.ok = r.boolean();
      out.unit = r.str();
      out.detail = r.str();
      break;
    }
  }
  return r.done();
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
    case FrameType::kInputEvent:
      return "input-event";
    case FrameType::kOutputEvent:
      return "output-event";
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kHeartbeatAck:
      return "heartbeat-ack";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kSpectrum:
      return "spectrum";
    case FrameType::kRecover:
      return "recover";
    case FrameType::kRecoverAck:
      return "recover-ack";
  }
  return "?";
}

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kFrameTooLarge:
      return "frame-too-large";
    case DecodeStatus::kBadChecksum:
      return "bad-checksum";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  return "?";
}

bool is_decode_error(DecodeStatus s) {
  return s != DecodeStatus::kOk && s != DecodeStatus::kNeedMore;
}

std::uint8_t negotiate_version(std::uint8_t local_min, std::uint8_t local_max,
                               std::uint8_t remote_min, std::uint8_t remote_max) {
  const std::uint8_t lo = local_min > remote_min ? local_min : remote_min;
  const std::uint8_t hi = local_max < remote_max ? local_max : remote_max;
  return lo <= hi ? hi : 0;
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  // The payload is written straight after the header; its length and
  // checksum are patched in once it is complete.
  journal::Encoder e;
  e.reserve(kHeaderSize);
  e.u32(kMagic);
  e.u8(f.version);
  e.u8(static_cast<std::uint8_t>(f.type));
  e.u16(0);  // reserved
  e.u32(f.seq);
  e.i64(f.time);
  e.u32(0);  // payload length
  e.u32(0);  // payload checksum
  switch (f.type) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
      e.u8(f.min_version);
      e.u8(f.max_version);
      e.str(f.detail);
      break;
    case FrameType::kInputEvent:
    case FrameType::kOutputEvent:
      put_event(e, f.event);
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
      e.u64(f.nonce);
      break;
    case FrameType::kShutdown:
      e.str(f.detail);
      break;
    case FrameType::kSpectrum:
      put_spectra(e, f);
      break;
    case FrameType::kRecover:
      e.u8(f.action);
      e.u64(f.token);
      e.u32(f.block);
      e.str(f.unit);
      break;
    case FrameType::kRecoverAck:
      e.u8(f.action);
      e.u64(f.token);
      e.boolean(f.ok);
      e.str(f.unit);
      e.str(f.detail);
      break;
  }
  std::vector<std::uint8_t> out = e.take();
  const std::size_t payload_len = out.size() - kHeaderSize;
  if (payload_len > kMaxFramePayload) return {};
  std::uint8_t* len_at = out.data() + kHeaderSize - 8;
  len_at = store_u32(len_at, static_cast<std::uint32_t>(payload_len));
  store_u32(len_at, crc32c(out.data() + kHeaderSize, payload_len));
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // fail closed: no bytes accepted after an error
  // Compact consumed prefix before growing (bounded memory per link).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (poisoned_) return DecodeStatus::kMalformed;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buf_.data() + pos_;

  journal::Decoder header(h, kHeaderSize);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type = header.u8();
  const std::uint16_t reserved = header.u16();
  const std::uint32_t seq = header.u32();
  const std::int64_t time = header.i64();
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t checksum = header.u32();

  auto poison = [&](DecodeStatus s) {
    poisoned_ = true;
    return s;
  };
  if (magic != kMagic) return poison(DecodeStatus::kBadMagic);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    // Hello frames must survive a version skew, or negotiation could
    // never happen; the payload carries the peer's supported range.
    const bool hello = type == static_cast<std::uint8_t>(FrameType::kHello) ||
                       type == static_cast<std::uint8_t>(FrameType::kHelloAck);
    if (!hello) return poison(DecodeStatus::kBadVersion);
  }
  if (!known_type(type)) return poison(DecodeStatus::kBadType);
  if (reserved != 0) return poison(DecodeStatus::kMalformed);
  if (payload_len > kMaxFramePayload) return poison(DecodeStatus::kFrameTooLarge);
  if (avail < kHeaderSize + payload_len) return DecodeStatus::kNeedMore;

  const std::uint8_t* payload = h + kHeaderSize;
  if (crc32c(payload, payload_len) != checksum) return poison(DecodeStatus::kBadChecksum);

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.version = version;
  f.seq = seq;
  f.time = time;
  if (!decode_payload(f.type, payload, payload_len, f)) return poison(DecodeStatus::kMalformed);

  pos_ += kHeaderSize + payload_len;
  out = std::move(f);
  return DecodeStatus::kOk;
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  poisoned_ = false;
}

}  // namespace trader::ipc
