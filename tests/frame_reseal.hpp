// Re-sealing hand-edited wire encodings, for tests that corrupt a
// frame's structure but not its integrity check.
#pragma once

#include <cstdint>
#include <vector>

#include "ipc/wire.hpp"

namespace trader::ipc {

/// Fix the payload length the header announces (offset 20) and the
/// payload checksum (offset 24) of an edited encoding, so the decoder
/// judges the edited structure rather than the integrity check.
inline std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size() - kHeaderSize);
  const std::uint32_t sum = crc32c(bytes.data() + kHeaderSize, len);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<std::uint8_t>(len >> (8 * i));
    bytes[24 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
  return bytes;
}

}  // namespace trader::ipc
