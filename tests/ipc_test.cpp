// Tests for src/ipc: wire codec properties (round-trip, truncation,
// bit-flip corruption failing closed, the reserved type numbers),
// version negotiation, transport metrics and the supervision state
// machine. The SUO process boundary itself — handshakes, SIGKILL of a
// real publisher child, the campaign's wire differential — is tested
// through the hub in hub_test.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "frame_reseal.hpp"
#include "gtest/gtest.h"
#include "ipc/supervisor.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "runtime/rng.hpp"

namespace rt = trader::runtime;
namespace ipc = trader::ipc;

namespace {

// ------------------------------------------------------------------ helpers

using ipc::reseal;

std::vector<ipc::Frame> sample_frames() {
  std::vector<ipc::Frame> frames;

  ipc::Frame hello;
  hello.type = ipc::FrameType::kHello;
  hello.seq = 1;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.detail = "monitor";
  frames.push_back(hello);

  ipc::Frame hello_ack;
  hello_ack.type = ipc::FrameType::kHelloAck;
  hello_ack.seq = 2;
  hello_ack.detail = "suo_host";
  frames.push_back(hello_ack);

  ipc::Frame input;
  input.type = ipc::FrameType::kInputEvent;
  input.seq = 3;
  input.time = rt::msec(40);
  input.event.topic = "tv.input";
  input.event.name = "key_press";
  input.event.fields["key"] = std::string("power");
  input.event.timestamp = rt::msec(40);
  frames.push_back(input);

  ipc::Frame output;
  output.type = ipc::FrameType::kOutputEvent;
  output.seq = 4;
  output.time = rt::msec(60);
  output.event.topic = "tv.output";
  output.event.name = "sound_level";
  output.event.fields["value"] = std::int64_t{35};
  output.event.fields["quality"] = 0.875;
  output.event.fields["muted"] = false;
  frames.push_back(output);

  ipc::Frame heartbeat;
  heartbeat.type = ipc::FrameType::kHeartbeat;
  heartbeat.seq = 7;
  heartbeat.nonce = 0x0123456789abcdefULL;
  frames.push_back(heartbeat);

  ipc::Frame heartbeat_ack;
  heartbeat_ack.type = ipc::FrameType::kHeartbeatAck;
  heartbeat_ack.seq = 8;
  heartbeat_ack.nonce = 0x0123456789abcdefULL;
  frames.push_back(heartbeat_ack);

  ipc::Frame shutdown;
  shutdown.type = ipc::FrameType::kShutdown;
  shutdown.seq = 9;
  shutdown.detail = "bye";
  frames.push_back(shutdown);

  ipc::Frame spectrum;
  spectrum.type = ipc::FrameType::kSpectrum;
  spectrum.seq = 10;
  spectrum.time = rt::msec(120);
  spectrum.block_count = 64;
  spectrum.spectra.push_back({false, {0, 3, 17}});
  spectrum.spectra.push_back({true, {0, 5, 17, 63}});
  spectrum.spectra.push_back({false, {}});  // a step may touch nothing
  frames.push_back(spectrum);

  ipc::Frame recover;
  recover.type = ipc::FrameType::kRecover;
  recover.seq = 11;
  recover.time = rt::msec(130);
  recover.action = 1;  // restart-unit
  recover.token = 0xfeedfacecafeULL;
  recover.block = 4711;
  recover.unit = "aspect2";
  frames.push_back(recover);

  ipc::Frame recover_ack;
  recover_ack.type = ipc::FrameType::kRecoverAck;
  recover_ack.seq = 12;
  recover_ack.time = rt::msec(131);
  recover_ack.action = 1;
  recover_ack.token = 0xfeedfacecafeULL;
  recover_ack.ok = true;
  recover_ack.unit = "aspect2";
  recover_ack.detail = "repaired aspect2";
  frames.push_back(recover_ack);

  return frames;
}

void expect_frames_equal(const ipc::Frame& a, const ipc::Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.event.topic, b.event.topic);
  EXPECT_EQ(a.event.name, b.event.name);
  EXPECT_EQ(a.event.fields, b.event.fields);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.min_version, b.min_version);
  EXPECT_EQ(a.max_version, b.max_version);
  EXPECT_EQ(a.nonce, b.nonce);
  EXPECT_EQ(a.block_count, b.block_count);
  EXPECT_EQ(a.spectra, b.spectra);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.token, b.token);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.unit, b.unit);
}

}  // namespace

// =================================================================== codec

TEST(IpcWire, RoundTripsEveryFrameType) {
  for (const auto& original : sample_frames()) {
    const auto bytes = ipc::encode_frame(original);
    ASSERT_FALSE(bytes.empty()) << ipc::to_string(original.type);

    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame decoded;
    ASSERT_EQ(decoder.next(decoded), ipc::DecodeStatus::kOk) << ipc::to_string(original.type);
    expect_frames_equal(original, decoded);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(IpcWire, EncodedBytesArePinned) {
  // A round trip passes even when encoder and decoder change the bytes
  // together; these digests pin the bytes themselves. One frame of every
  // type (sample_frames(): a three-step spectrum, recover and its ack, a
  // hello with a detail string), plus an event carrying all four Value
  // kinds. A digest is "<size>:<CRC32C of the whole frame>".
  std::vector<ipc::Frame> frames = sample_frames();
  ipc::Frame every_kind;
  every_kind.type = ipc::FrameType::kOutputEvent;
  every_kind.seq = 21;
  every_kind.time = -rt::msec(3);
  every_kind.event.topic = "tv.output";
  every_kind.event.name = "status";
  every_kind.event.fields["count"] = std::int64_t{-1234567890123};
  every_kind.event.fields["ratio"] = -0.15625;
  every_kind.event.fields["label"] = std::string("teletext page 100");
  every_kind.event.fields["on"] = true;
  frames.push_back(every_kind);

  const std::vector<std::string> pinned = {
      "41:3897354949",   // hello
      "42:2552440931",   // hello-ack
      "74:1013411666",   // input-event
      "109:2170582125",  // output-event
      "36:2812539758",   // heartbeat
      "36:1620698957",   // heartbeat-ack
      "35:2565862096",   // shutdown
      "79:3550095225",   // spectrum
      "52:908860617",    // recover
      "69:2997767896",   // recover-ack
      "130:658642291",   // output-event with all four Value kinds
  };
  ASSERT_EQ(frames.size(), pinned.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto bytes = ipc::encode_frame(frames[i]);
    const std::string digest =
        std::to_string(bytes.size()) + ":" +
        std::to_string(ipc::crc32c_reference(bytes.data(), bytes.size()));
    EXPECT_EQ(digest, pinned[i]) << i << " " << ipc::to_string(frames[i].type);
  }
}

TEST(IpcWire, PropertyRandomFramesSurviveChunkedFeeding) {
  // Seeded property test: a stream of random frames fed in random chunk
  // sizes decodes to exactly the input sequence, regardless of how the
  // kernel would fragment it.
  rt::Rng rng(0xc0dec);
  const auto samples = sample_frames();

  for (int round = 0; round < 50; ++round) {
    std::vector<ipc::Frame> sent;
    std::vector<std::uint8_t> stream;
    const int count = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < count; ++i) {
      ipc::Frame f = samples[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(samples.size()) - 1))];
      f.seq = static_cast<std::uint32_t>(rng.next_u64());
      f.time = rng.uniform_int(0, rt::sec(100));
      if (f.type == ipc::FrameType::kOutputEvent) {
        f.event.fields["n"] = rng.uniform(0.0, 1.0);
      }
      const auto bytes = ipc::encode_frame(f);
      ASSERT_FALSE(bytes.empty());
      stream.insert(stream.end(), bytes.begin(), bytes.end());
      sent.push_back(std::move(f));
    }

    ipc::FrameDecoder decoder;
    std::vector<ipc::Frame> received;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.uniform_int(1, std::min<std::int64_t>(97, static_cast<std::int64_t>(stream.size() - pos))));
      decoder.feed(stream.data() + pos, chunk);
      pos += chunk;
      ipc::Frame f;
      while (decoder.next(f) == ipc::DecodeStatus::kOk) received.push_back(f);
      ASSERT_FALSE(decoder.poisoned());
    }

    ASSERT_EQ(received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) expect_frames_equal(sent[i], received[i]);
  }
}

TEST(IpcWire, TruncationNeverYieldsAFrame) {
  for (const auto& original : sample_frames()) {
    const auto bytes = ipc::encode_frame(original);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      ipc::FrameDecoder decoder;
      decoder.feed(bytes.data(), cut);
      ipc::Frame out;
      EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kNeedMore)
          << ipc::to_string(original.type) << " truncated at " << cut;
    }
  }
}

TEST(IpcWire, BitFlipCorruptionFailsClosed) {
  // Flip every bit of every byte of every sample frame. The decode must
  // never deliver a frame that silently pretends to be the original:
  //   * payload flips (offset >= 28) are always caught by the checksum;
  //   * header flips are caught field-by-field, except the documented
  //     unprotected window — seq/time at offsets [8, 20) decode to a
  //     different-but-valid frame, a type-byte flip (offset 5) may
  //     land on another known type whose payload grammar coincidentally
  //     accepts the bytes, and a version-byte flip (offset 4) may land
  //     on another version inside the accepted [min, max] range (three
  //     live versions since kRecover arrived, so low-bit flips of 3
  //     stay in-range); in every case the frame visibly differs.
  for (const auto& original : sample_frames()) {
    const auto clean = ipc::encode_frame(original);
    for (std::size_t i = 0; i < clean.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupt = clean;
        corrupt[i] = static_cast<std::uint8_t>(corrupt[i] ^ (1u << bit));

        ipc::FrameDecoder decoder;
        decoder.feed(corrupt.data(), corrupt.size());
        ipc::Frame out;
        const auto status = decoder.next(out);

        if (i >= ipc::kHeaderSize) {
          EXPECT_EQ(status, ipc::DecodeStatus::kBadChecksum)
              << ipc::to_string(original.type) << " payload byte " << i << " bit " << bit;
          EXPECT_TRUE(decoder.poisoned());
        } else if (status == ipc::DecodeStatus::kOk) {
          const bool unprotected_header = (i >= 8 && i < 20) || i == 5 || i == 4;
          EXPECT_TRUE(unprotected_header)
              << ipc::to_string(original.type) << " header byte " << i << " bit " << bit
              << " decoded despite corruption";
          if (i == 4) {
            EXPECT_NE(out.version, original.version);
          } else if (i == 5) {
            EXPECT_NE(out.type, original.type);
          } else {
            EXPECT_TRUE(out.seq != original.seq || out.time != original.time);
          }
        } else {
          EXPECT_TRUE(ipc::is_decode_error(status) || status == ipc::DecodeStatus::kNeedMore);
          if (ipc::is_decode_error(status)) {
            EXPECT_TRUE(decoder.poisoned());
            // Fail closed: a poisoned decoder refuses everything after.
            decoder.feed(clean.data(), clean.size());
            EXPECT_NE(decoder.next(out), ipc::DecodeStatus::kOk);
          }
        }
      }
    }
  }
}

TEST(IpcWire, Crc32cCheckValue) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(ipc::crc32c(p, check.size()), 0xE3069283u);
  EXPECT_EQ(ipc::crc32c_reference(p, check.size()), 0xE3069283u);
  EXPECT_EQ(ipc::crc32c(p, 0), 0u);
}

TEST(IpcWire, DispatchedCrc32cMatchesTableReference) {
  // The hardware path reads eight bytes at a time from any alignment;
  // every length 0-300 at every start offset 0-7 crosses its tail loop.
  rt::Rng rng(32);
  std::vector<std::uint8_t> buf(64 * 1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(ipc::crc32c(buf.data() + off, n), ipc::crc32c_reference(buf.data() + off, n))
          << "offset " << off << " length " << n;
    }
  }
  EXPECT_EQ(ipc::crc32c(buf.data() + 3, 64 * 1024),
            ipc::crc32c_reference(buf.data() + 3, 64 * 1024));
}

// The table-driven fallback folds eight bytes per round; hold it to
// the polynomial itself, one bit at a time, across every round/tail
// split and alignment.
TEST(IpcWire, SlicedTableCrc32cMatchesBitwiseDefinition) {
  const auto bitwise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    return ~c;
  };
  rt::Rng rng(33);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 80; ++n) {
      ASSERT_EQ(ipc::crc32c_reference(buf.data() + off, n), bitwise(buf.data() + off, n))
          << "offset " << off << " length " << n;
    }
  }
  EXPECT_EQ(ipc::crc32c_reference(buf.data() + 5, 4096), bitwise(buf.data() + 5, 4096));
}

TEST(IpcWire, EveryBurstUpTo32BitsInASpectrumPayloadIsRejected) {
  // A 64 KiB spectrum frame (the closed loop's shape). CRC32C detects
  // every burst of up to 32 bits; flip bursts of each length, with
  // random interior bits, at sampled bit offsets across the payload.
  ipc::Frame f;
  f.type = ipc::FrameType::kSpectrum;
  f.block_count = 40000;
  ipc::SpectrumStep step;
  step.error = true;
  for (std::uint32_t b = 0; step.blocks.size() < 16380; b += 2) step.blocks.push_back(b);
  f.spectra.push_back(step);
  const auto clean = ipc::encode_frame(f);
  ASSERT_FALSE(clean.empty());
  const std::size_t payload_bits = (clean.size() - ipc::kHeaderSize) * 8;
  ASSERT_GT(payload_bits, 8u * 65000u);

  rt::Rng rng(2008);
  std::vector<std::size_t> starts = {0, payload_bits - 32};
  while (starts.size() < 24) {
    starts.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(payload_bits) - 33)));
  }
  for (std::size_t len = 1; len <= 32; ++len) {
    for (const std::size_t start : starts) {
      auto corrupt = clean;
      for (std::size_t k = 0; k < len; ++k) {
        const bool edge = k == 0 || k + 1 == len;  // a burst starts and ends flipped
        if (!edge && rng.uniform_int(0, 1) == 0) continue;
        const std::size_t bit = start + k;
        corrupt[ipc::kHeaderSize + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      ipc::FrameDecoder decoder;
      decoder.feed(corrupt.data(), corrupt.size());
      ipc::Frame out;
      ASSERT_EQ(decoder.next(out), ipc::DecodeStatus::kBadChecksum)
          << len << "-bit burst at payload bit " << start;
    }
  }
}

TEST(IpcWire, OversizedPayloadRejectedOnBothSides) {
  ipc::Frame big;
  big.type = ipc::FrameType::kShutdown;
  big.detail.assign(ipc::kMaxFramePayload + 1, 'x');
  EXPECT_TRUE(ipc::encode_frame(big).empty());

  // A forged header announcing an oversized payload is rejected before
  // any payload bytes arrive (no allocation, no waiting).
  ipc::Frame small;
  small.type = ipc::FrameType::kShutdown;
  small.detail = "ok";
  auto bytes = ipc::encode_frame(small);
  const std::uint32_t huge = ipc::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) bytes[20 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  ipc::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ipc::Frame out;
  EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kFrameTooLarge);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(IpcWire, MalformedSpectrumPayloadFailsClosed) {
  // The kSpectrum grammar is strict: error bytes are 0/1, ids strictly
  // ascend, ids stay below block_count, step counts match the payload.
  // Each violation must poison the decoder (checksum re-sealed so the
  // *structural* validation is what trips, not the integrity check).
  ipc::Frame f;
  f.type = ipc::FrameType::kSpectrum;
  f.block_count = 10;
  f.spectra.push_back({true, {2, 5}});
  const auto clean = ipc::encode_frame(f);
  ASSERT_FALSE(clean.empty());
  // Payload offsets: 0..3 block_count, 4..7 step_count, 8 error byte,
  // 9..12 executed count, 13..16 id[0], 17..20 id[1].
  const auto corrupt_at = [&](std::size_t payload_off, std::uint32_t value) {
    auto bytes = clean;
    for (int i = 0; i < 4 && ipc::kHeaderSize + payload_off + i < bytes.size(); ++i) {
      bytes[ipc::kHeaderSize + payload_off + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
    return reseal(std::move(bytes));
  };
  const auto expect_malformed = [](const std::vector<std::uint8_t>& bytes, const char* what) {
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kMalformed) << what;
    EXPECT_TRUE(decoder.poisoned()) << what;
  };

  {
    auto bytes = clean;  // error byte 2 (single byte, not a u32 write)
    bytes[ipc::kHeaderSize + 8] = 2;
    expect_malformed(reseal(std::move(bytes)), "error byte > 1");
  }
  expect_malformed(corrupt_at(17, 2), "non-ascending block ids");
  expect_malformed(corrupt_at(17, 10), "block id >= block_count");
  expect_malformed(corrupt_at(4, 7), "step count beyond the payload");

  // The untouched encoding still decodes (the corruptions above were
  // the only problem, not the harness).
  ipc::FrameDecoder decoder;
  decoder.feed(clean.data(), clean.size());
  ipc::Frame out;
  ASSERT_EQ(decoder.next(out), ipc::DecodeStatus::kOk);
  EXPECT_EQ(out.block_count, 10u);
  ASSERT_EQ(out.spectra.size(), 1u);
  EXPECT_TRUE(out.spectra[0].error);
}

TEST(IpcWire, BadIdAnywhereInALaterStepFailsClosed) {
  // A two-step spectrum whose first step is clean: an out-of-range, a
  // duplicate or a descending id at the first, a middle or the last
  // position of the *second* step must still fail the whole frame, so
  // no step of it ever reaches a ranking.
  ipc::Frame f;
  f.type = ipc::FrameType::kSpectrum;
  f.block_count = 20;
  f.spectra.push_back({true, {0, 4, 9}});
  f.spectra.push_back({false, {2, 5, 8, 11, 19}});
  const auto clean = ipc::encode_frame(f);
  ASSERT_FALSE(clean.empty());
  // Payload offsets: 8 bytes of universe and step count, then step 0
  // (1 error byte + 4 count bytes + 3 ids), then step 1's error byte and
  // count, then its ids.
  const std::size_t ids1 = 8 + (1 + 4 + 3 * 4) + (1 + 4);
  const std::vector<std::uint32_t> ids = f.spectra[1].blocks;
  const auto with_id = [&](std::size_t at, std::uint32_t value) {
    auto bytes = clean;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[ipc::kHeaderSize + ids1 + 4 * at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    return reseal(std::move(bytes));
  };
  struct Case {
    std::size_t at;
    std::uint32_t value;
    const char* what;
  };
  const std::size_t last = ids.size() - 1;
  const std::vector<Case> cases = {
      {0, 20, "out of range, first"},
      {2, 20, "out of range, middle"},
      {last, 20, "out of range, last"},
      {last, 0xffffffffu, "out of range (max u32), last"},
      {0, ids[1], "duplicate, first"},
      {2, ids[1], "duplicate, middle"},
      {last, ids[last - 1], "duplicate, last"},
      {0, ids[1] + 1, "descending, first"},
      {2, ids[1] - 1, "descending, middle"},
      {last, ids[last - 1] - 1, "descending, last"},
  };
  for (const Case& c : cases) {
    const auto bytes = with_id(c.at, c.value);
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kMalformed) << c.what;
    EXPECT_TRUE(decoder.poisoned()) << c.what;
  }

  // The unedited frame decodes to both steps.
  ipc::FrameDecoder decoder;
  decoder.feed(clean.data(), clean.size());
  ipc::Frame out;
  ASSERT_EQ(decoder.next(out), ipc::DecodeStatus::kOk);
  ASSERT_EQ(out.spectra.size(), 2u);
  EXPECT_EQ(out.spectra[1].blocks, ids);
}

TEST(IpcWire, MalformedRecoverPayloadFailsClosed) {
  // The v3 recovery grammar is strict: wire actions are the four
  // actuatable ladder rungs (give-up is hub-local, never on wire), ack
  // ok bytes are 0/1, and both frames must consume the payload exactly.
  // A hostile or corrupted peer poisons its decoder, never actuates.
  const auto expect_malformed = [](const std::vector<std::uint8_t>& bytes, const char* what) {
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kMalformed) << what;
    EXPECT_TRUE(decoder.poisoned()) << what;
  };

  ipc::Frame cmd;
  cmd.type = ipc::FrameType::kRecover;
  cmd.action = 3;
  cmd.token = 42;
  cmd.block = 7;
  cmd.unit = "u";
  const auto cmd_clean = ipc::encode_frame(cmd);
  ASSERT_FALSE(cmd_clean.empty());
  for (std::uint8_t action : {std::uint8_t{4}, std::uint8_t{0xff}}) {
    auto bytes = cmd_clean;  // payload offset 0 = action byte
    bytes[ipc::kHeaderSize] = action;
    expect_malformed(reseal(std::move(bytes)),
                     "kRecover action beyond the wire ladder");
  }
  {
    auto bytes = cmd_clean;  // exact-consumption check (r.done())
    bytes.push_back(0);
    expect_malformed(reseal(std::move(bytes)), "kRecover trailing byte");
  }

  ipc::Frame ack;
  ack.type = ipc::FrameType::kRecoverAck;
  ack.action = 1;
  ack.token = 42;
  ack.ok = true;
  ack.unit = "u";
  ack.detail = "d";
  const auto ack_clean = ipc::encode_frame(ack);
  ASSERT_FALSE(ack_clean.empty());
  {
    auto bytes = ack_clean;
    bytes[ipc::kHeaderSize] = 4;  // action byte
    expect_malformed(reseal(std::move(bytes)), "kRecoverAck action beyond the ladder");
  }
  {
    auto bytes = ack_clean;  // ok byte sits after action(1) + token(8)
    bytes[ipc::kHeaderSize + 9] = 2;
    expect_malformed(reseal(std::move(bytes)), "kRecoverAck ok byte not 0/1");
  }
  {
    auto bytes = ack_clean;
    bytes.push_back(7);
    expect_malformed(reseal(std::move(bytes)), "kRecoverAck trailing byte");
  }

  // The untouched encodings still decode — the corruptions were the
  // only problem, not the harness.
  for (const auto* clean : {&cmd_clean, &ack_clean}) {
    ipc::FrameDecoder decoder;
    decoder.feed(clean->data(), clean->size());
    ipc::Frame out;
    ASSERT_EQ(decoder.next(out), ipc::DecodeStatus::kOk);
    EXPECT_EQ(out.token, 42u);
  }
}

TEST(IpcWire, ReservedTypeNumbersFailClosed) {
  // Type numbers 5 and 6 carried the retired lockstep control pair. A
  // frame that still uses one — well formed, checksum clean, payload in
  // the old command grammar — must not decode as anything.
  ipc::Frame shaped;
  shaped.type = ipc::FrameType::kShutdown;  // payload: one str, the command
  shaped.detail = "inject";
  const auto clean = ipc::encode_frame(shaped);
  auto command = clean;
  auto command_ack = clean;
  command.insert(command.end(), 4, 0);  // u32 argc = 0
  command_ack.push_back(1);             // u8 ok
  command_ack.insert(command_ack.end(), 4, 0);  // empty detail str
  command[5] = 5;  // the header's type byte
  command_ack[5] = 6;

  for (const auto& bytes : {reseal(command), reseal(command_ack)}) {
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kBadType) << "type " << int{bytes[5]};
    EXPECT_TRUE(decoder.poisoned());
    // The decoder stays poisoned: a clean frame after it is refused.
    decoder.feed(clean.data(), clean.size());
    EXPECT_NE(decoder.next(out), ipc::DecodeStatus::kOk);
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(IpcWire, VersionNegotiation) {
  EXPECT_EQ(ipc::negotiate_version(1, 1, 1, 1), 1);
  EXPECT_EQ(ipc::negotiate_version(1, 3, 2, 5), 3);  // highest common
  EXPECT_EQ(ipc::negotiate_version(2, 4, 1, 2), 2);
  EXPECT_EQ(ipc::negotiate_version(1, 1, 2, 3), 0);  // disjoint -> reject
  EXPECT_EQ(ipc::negotiate_version(4, 6, 1, 3), 0);
}

// =============================================================== transport

TEST(IpcTransport, SocketpairCarriesFramesAndCountsMetrics) {
  auto [a, b] = ipc::socketpair_transport();
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  rt::MetricsRegistry metrics;
  a.set_metrics(&metrics);
  b.set_metrics(&metrics);

  for (const auto& f : sample_frames()) ASSERT_TRUE(a.send(f));
  for (const auto& f : sample_frames()) {
    ipc::Frame got;
    ASSERT_EQ(b.recv(got, 1000), ipc::FramedSocket::RecvStatus::kFrame);
    expect_frames_equal(f, got);
  }

  const auto snap = metrics.snapshot();
  const auto n = sample_frames().size();
  EXPECT_EQ(snap.counter("ipc.frames_sent"), n);
  EXPECT_EQ(snap.counter("ipc.frames_received"), n);
  EXPECT_GT(snap.counter("ipc.bytes_sent"), 0u);
  EXPECT_EQ(snap.counter("ipc.bytes_sent"), snap.counter("ipc.bytes_received"));

  // Satellite: the ipc.* family is addressable through the snapshot's
  // prefix filter (and thereby excludable from golden fingerprints).
  const auto lines = snap.counter_lines({"ipc."});
  ASSERT_FALSE(lines.empty());
  for (const auto& line : lines) EXPECT_EQ(line.rfind("ipc.", 0), 0u) << line;
  EXPECT_EQ(lines.size(), 6u);  // frames/bytes x2 + encode/decode errors
}

TEST(IpcTransport, GarbageBytesCloseTheLinkAndCountDecodeErrors) {
  auto [a, b] = ipc::socketpair_transport();
  rt::MetricsRegistry metrics;
  b.set_metrics(&metrics);

  const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
                               0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                               0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13,
                               0x14, 0x15, 0x16, 0x17};
  ASSERT_EQ(::write(a.fd(), junk, sizeof(junk)), static_cast<ssize_t>(sizeof(junk)));

  ipc::Frame out;
  EXPECT_EQ(b.recv(out, 1000), ipc::FramedSocket::RecvStatus::kProtocolError);
  EXPECT_FALSE(b.valid());  // fail closed: socket dropped
  EXPECT_EQ(metrics.snapshot().counter("ipc.decode_errors"), 1u);
}

TEST(IpcTransport, UnixListenerAcceptsAndCarriesFrames) {
  const std::string path = "@trader-ipc-test-" + std::to_string(::getpid());
  const int listener = ipc::listen_unix(path);
  ASSERT_GE(listener, 0);

  const int client_fd = ipc::connect_unix_retry(path, 2000);
  ASSERT_GE(client_fd, 0);
  const int server_fd = ipc::accept_unix(listener, 2000);
  ASSERT_GE(server_fd, 0);

  ipc::FramedSocket client(client_fd);
  ipc::FramedSocket server(server_fd);
  ipc::Frame f;
  f.type = ipc::FrameType::kHeartbeat;
  f.nonce = 42;
  ASSERT_TRUE(client.send(f));
  ipc::Frame got;
  ASSERT_EQ(server.recv(got, 1000), ipc::FramedSocket::RecvStatus::kFrame);
  EXPECT_EQ(got.nonce, 42u);

  ::close(listener);
  ipc::unlink_unix(path);
}

// A nonblocking writer hitting a full kernel buffer mid-frame must get
// partial-write/kWouldBlock from write_some — never a short silent
// success — and the frame must still arrive whole once the reader
// drains. This is the exact contract the hub's coalesced flush relies
// on to resume from an offset.
TEST(IpcTransport, PartialWriteNonblockingResumesMidFrame) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 1;  // kernel clamps to its minimum, still < our frame
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)), 0);
  ASSERT_TRUE(ipc::set_nonblocking(sv[0], true));

  ipc::Frame f;
  f.type = ipc::FrameType::kOutputEvent;
  f.event.topic = "tv.output";
  f.event.name = "sound_level";
  f.event.fields["pad"] = std::string(32 * 1024, 'q');  // dwarfs SO_SNDBUF
  const auto wire = ipc::encode_frame(f);
  ASSERT_FALSE(wire.empty());

  // Phase 1: write until the buffer is full. We must observe a partial
  // frame on the wire (some bytes in, kWouldBlock before the end).
  std::size_t off = 0;
  bool would_block = false;
  while (off < wire.size()) {
    std::size_t n = 0;
    const auto st = ipc::write_some(sv[0], wire.data() + off, wire.size() - off, n);
    if (st == ipc::IoStatus::kWouldBlock) {
      would_block = true;
      break;
    }
    ASSERT_EQ(st, ipc::IoStatus::kOk);
    off += n;
  }
  ASSERT_TRUE(would_block) << "frame fit the buffer; shrink SO_SNDBUF";
  ASSERT_GT(off, 0u);
  ASSERT_LT(off, wire.size());

  // Phase 2: drain the reader concurrently while the writer resumes
  // from its offset; the decoder must reassemble exactly one frame.
  ipc::FrameDecoder decoder;
  ipc::Frame got;
  bool complete = false;
  std::uint8_t buf[4096];
  while (!complete) {
    if (off < wire.size()) {
      std::size_t n = 0;
      const auto st = ipc::write_some(sv[0], wire.data() + off, wire.size() - off, n);
      ASSERT_NE(st, ipc::IoStatus::kError);
      ASSERT_NE(st, ipc::IoStatus::kClosed);
      off += n;
    }
    std::size_t n = 0;
    const auto st = ipc::read_some(sv[1], buf, sizeof(buf), n);
    if (st == ipc::IoStatus::kOk) decoder.feed(buf, n);
    complete = decoder.next(got) == ipc::DecodeStatus::kOk;
    ASSERT_FALSE(decoder.poisoned());
  }
  EXPECT_EQ(off, wire.size());
  EXPECT_EQ(got.event.name, "sound_level");
  EXPECT_EQ(got.event.str_field("pad").size(), 32u * 1024u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// Two listeners on one abstract-namespace name: the kernel owns the
// name, so the second bind must fail cleanly (-1) instead of stealing
// or shadowing the first — that is what makes hub listener paths safe
// to derive from the pid without filesystem cleanup.
TEST(IpcTransport, AbstractNamespaceBindCollisionFails) {
  const std::string path = "@trader-bind-collision-" + std::to_string(::getpid());
  const int first = ipc::listen_unix(path);
  ASSERT_GE(first, 0);
  const int second = ipc::listen_unix(path);
  EXPECT_EQ(second, -1) << "duplicate abstract bind must fail closed";

  // The original listener still works after the failed collision.
  const int client_fd = ipc::connect_unix_retry(path, 2000);
  ASSERT_GE(client_fd, 0);
  ::close(client_fd);
  ::close(first);
  ipc::unlink_unix(path);
}

// ============================================================== supervisor

TEST(IpcSupervisor, BackoffIsImmediateThenExponentialAndCapped) {
  ipc::SupervisorConfig config;
  config.backoff_initial_ms = 20;
  config.backoff_max_ms = 160;
  config.backoff_jitter = 0.2;
  ipc::ProcessSupervisor sup(config);

  EXPECT_EQ(sup.next_backoff_ms(), 0);  // freshly dead SUO: probe now
  std::int64_t prev = 0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const std::int64_t d = sup.next_backoff_ms();
    const double nominal = std::min<double>(20.0 * (1 << (attempt - 1)), 160.0);
    EXPECT_GE(d, static_cast<std::int64_t>(nominal * 0.8) - 1) << attempt;
    EXPECT_LE(d, static_cast<std::int64_t>(nominal * 1.2) + 1) << attempt;
    EXPECT_GE(d, prev / 4);  // monotone-ish despite jitter
    prev = d;
  }
  EXPECT_EQ(sup.state(), ipc::LinkState::kConnecting);

  // Determinism: a second supervisor with the same seed walks the same
  // jittered sequence.
  ipc::ProcessSupervisor twin(config);
  ipc::ProcessSupervisor sup2(config);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(twin.next_backoff_ms(), sup2.next_backoff_ms());
}

TEST(IpcSupervisor, AttemptBudgetExhaustsToFailed) {
  ipc::SupervisorConfig config;
  config.max_attempts = 3;
  ipc::ProcessSupervisor sup(config);
  EXPECT_GE(sup.next_backoff_ms(), 0);
  EXPECT_GE(sup.next_backoff_ms(), 0);
  EXPECT_GE(sup.next_backoff_ms(), 0);
  EXPECT_EQ(sup.next_backoff_ms(), -1);
  EXPECT_TRUE(sup.exhausted());
  EXPECT_EQ(sup.state(), ipc::LinkState::kFailed);
}

TEST(IpcSupervisor, HeartbeatMissesDegradeThenDeclareDeadOnce) {
  ipc::SupervisorConfig config;
  config.heartbeat_miss_threshold = 3;
  ipc::ProcessSupervisor sup(config);

  sup.on_connected();
  EXPECT_EQ(sup.state(), ipc::LinkState::kUp);
  EXPECT_FALSE(sup.on_heartbeat_miss());
  EXPECT_EQ(sup.state(), ipc::LinkState::kDegraded);
  EXPECT_FALSE(sup.on_heartbeat_miss());
  sup.on_heartbeat_ack();  // recovery clears the streak
  EXPECT_EQ(sup.state(), ipc::LinkState::kUp);
  EXPECT_FALSE(sup.on_heartbeat_miss());
  EXPECT_FALSE(sup.on_heartbeat_miss());
  EXPECT_TRUE(sup.on_heartbeat_miss());  // third consecutive miss
  EXPECT_EQ(sup.state(), ipc::LinkState::kDown);
  EXPECT_EQ(sup.outages(), 1u);

  // Reconnect counts once; a second connect while up is a no-op.
  sup.next_backoff_ms();
  sup.on_connected();
  sup.on_connected();
  EXPECT_EQ(sup.reconnects(), 1u);
}
