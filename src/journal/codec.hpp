// The project's one byte codec: the wire protocol (ipc/wire.cpp) and
// the durable hub artifacts (WAL records, checkpoints) both write and
// read their fields through Encoder and Decoder.
//
// Header-only on purpose: the low layers that serialize themselves
// (the wire, diagnosis counters, recovery escalator, supervisor
// snapshots) include this without linking trader_journal, which keeps
// the dependency graph acyclic — trader_journal links trader_ipc, never
// the other way around.
//
// The format: explicit little-endian integers, u32-length-prefixed
// strings and byte blobs, and a fail-closed decoder — one malformed
// field poisons the decoder and every subsequent read returns zero, so
// a torn or corrupted frame or record can never leak partial state.
// Integrity is layered above, and each layer keeps its own checksum:
// wire frames seal their payloads with CRC32C (ipc::crc32c), WAL
// records and checkpoint bodies with fnv1a32() below.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace trader::journal {

/// FNV-1a 32-bit over a byte range: the checksum of every WAL record
/// and checkpoint body. It is the journal's own on-disk format, kept
/// byte-for-byte stable; wire frames carry CRC32C (ipc::crc32c).
inline std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x01000193u;
  }
  return h;
}

/// Little-endian integer load from any alignment; the byte loop folds
/// into one whole-word move.
template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

/// Append-only little-endian field writer.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { word(v); }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// u32 length prefix + raw bytes.
  void blob(const std::uint8_t* data, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    buf_.insert(buf_.end(), data, data + n);
  }

  void blob(const std::vector<std::uint8_t>& b) { blob(b.data(), b.size()); }

  /// Raw bytes, no length prefix (caller owns the framing).
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Appends `n` bytes for the caller to fill in place; returns where
  /// they start (valid until the next write).
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void word(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked field reader over a fixed byte range. Fails closed:
/// the first short or malformed read sets a sticky failure flag and
/// every later read yields zero / empty.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}
  explicit Decoder(const std::vector<std::uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() { return word<std::uint16_t>(); }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail();  // anything but 0/1 is malformed, not "truthy"
    return v == 1;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  /// Pointer into the underlying range for zero-copy framing; advances
  /// past `n` bytes. Null on underflow (and the decoder is poisoned).
  const std::uint8_t* raw(std::size_t n) {
    if (!need(n)) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  bool ok() const { return !failed_; }
  bool done() const { return !failed_ && pos_ == size_; }
  std::size_t remaining() const { return failed_ ? 0 : size_ - pos_; }
  void fail() { failed_ = true; }

 private:
  template <typename T>
  T word() {
    if (!need(sizeof(T))) return 0;
    const T v = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  bool need(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace trader::journal
