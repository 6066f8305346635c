// FNV-1a 64: the one fingerprint hash of the project.
//
// Golden traces, metrics snapshots and fuzz shapes render it as 16 hex
// digits, and the sharded fleet places aspects with it. It is stable
// across compilers and standard libraries, which std::hash is not, so
// a seed gives the same fingerprints and the same placement anywhere.
// (The journal's on-disk checksum is the separate 32-bit
// journal::fnv1a32; wire frames carry CRC32C.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace trader::runtime {

/// Incremental FNV-1a 64 over a byte stream.
class Fnv1a64 {
 public:
  Fnv1a64& byte(std::uint8_t c) {
    h_ = (h_ ^ c) * 0x100000001b3ULL;
    return *this;
  }
  Fnv1a64& bytes(std::string_view s) {
    for (const unsigned char c : s) byte(c);
    return *this;
  }

  std::uint64_t value() const { return h_; }

  /// 16 lowercase hex digits.
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Fingerprint of a line list, each line followed by '\n': the golden
/// trace and metrics snapshot fingerprint.
inline std::string lines_fingerprint(const std::vector<std::string>& lines) {
  Fnv1a64 h;
  for (const std::string& line : lines) h.bytes(line).byte('\n');
  return h.hex();
}

}  // namespace trader::runtime
