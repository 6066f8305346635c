// Tests for the durable hub (src/journal): the byte codec's fail-closed
// discipline, WAL append/rotate/scan with the full corruption contract
// (torn tails repair, mid-log damage fails closed — a byte-flip and a
// truncation sweep over every offset, mirroring the ipc_test frame
// sweep), checkpoint atomicity/fallback/retention, checkpoint
// roundtrips for every Checkpointable (SFL counters, fleet aggregator,
// recovery orchestrator) pinned by continued-input equality, HubJournal
// recovery fail-closed paths, a fork+SIGKILL durability smoke for
// FsyncPolicy::kEveryRecord, and the end-to-end crash-restart drill:
// a RecoveryCampaign scenario whose hub is killed cold mid-script must
// score byte-identically to an uninterrupted run, at 1/2/4 shards.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "diagnosis/incremental.hpp"
#include "fleetdiag/aggregator.hpp"
#include "gtest/gtest.h"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "hub/recovery.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "journal/checkpoint.hpp"
#include "journal/codec.hpp"
#include "journal/replay.hpp"
#include "journal/wal.hpp"
#include "runtime/metrics.hpp"
#include "testkit/recovery_campaign.hpp"
#include "testkit/scenario.hpp"

namespace diag = trader::diagnosis;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace jn = trader::journal;
namespace rec = trader::recovery;
namespace rt = trader::runtime;
namespace tk = trader::testkit;

namespace {

/// Scratch journal directory under $TMPDIR (default /tmp), removed
/// with everything in it — shard subdirectories included — on scope
/// exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "journal_test_XXXXXX").string();
    char* p = ::mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Append `n` records seq 1..n (alternating types) and close cleanly.
void write_records(const std::string& dir, int n,
                   std::size_t segment_bytes = 1 << 20) {
  jn::WalWriter w;
  ASSERT_TRUE(w.open(dir, 1, segment_bytes, jn::FsyncPolicy::kNone));
  for (int i = 1; i <= n; ++i) {
    const std::string slot = "slot" + std::to_string(i % 3);
    const std::vector<std::uint8_t> payload(static_cast<std::size_t>(i % 7), 0xab);
    ASSERT_EQ(w.append(i % 2 == 0 ? jn::WalRecordType::kTick : jn::WalRecordType::kSlotUp,
                       slot, rt::msec(i), payload.data(), payload.size()),
              static_cast<std::uint64_t>(i));
  }
  w.close();
}

/// Trivial Checkpointable: one u64, versioned.
struct CounterPart : jn::Checkpointable {
  std::string name;
  std::uint32_t version = 1;
  std::uint64_t value = 0;
  bool refuse_load = false;

  CounterPart(std::string n, std::uint64_t v) : name(std::move(n)), value(v) {}
  std::string checkpoint_name() const override { return name; }
  std::uint32_t checkpoint_version() const override { return version; }
  void save_state(jn::Encoder& out) const override { out.u64(value); }
  bool load_state(jn::Decoder& in, std::uint32_t ver) override {
    if (refuse_load || ver != version) return false;
    value = in.u64();
    return in.done();
  }
};

/// ReplaySink that just tallies what recovery dispatched.
struct CountingSink : jn::ReplaySink {
  std::size_t frames = 0, ups = 0, downs = 0, ticks = 0;
  std::vector<rt::SimTime> tick_times;
  std::vector<std::pair<bool, bool>> down_flags;  ///< (orderly, failed) per slot-down.
  void replay_frame(const std::string&, const ipc::Frame&) override { ++frames; }
  void replay_slot_up(const std::string&, std::uint8_t) override { ++ups; }
  void replay_slot_down(const std::string&, bool orderly, bool failed) override {
    ++downs;
    down_flags.emplace_back(orderly, failed);
  }
  void replay_tick(rt::SimTime now) override {
    ++ticks;
    tick_times.push_back(now);
  }
};

/// One error-evidence spectrum report (same shape recovery_loop_test uses).
void feed_error(fd::FleetAggregator& agg, const std::string& slot, std::uint32_t block,
                int reports = 1) {
  for (int i = 0; i < reports; ++i) {
    agg.ingest(slot, std::vector<ipc::SpectrumStep>{{true, {block}}, {false, {block + 1}}});
  }
}

std::string stats_key(const hub::RecoveryStats& s) {
  std::string out;
  for (std::uint64_t v : {s.sent, s.retries, s.timeouts, s.lost, s.acked_ok, s.acked_fail,
                          s.duplicate_acks, s.suppressed_unconverged, s.suppressed_cooldown,
                          s.suppressed_tokens, s.suppressed_version, s.quarantined, s.give_ups,
                          s.recovered, s.policy_denied}) {
    out += std::to_string(v) + ",";
  }
  return out;
}

std::string actions_key(const std::vector<hub::RecoveryActionRecord>& actions) {
  std::string out;
  for (const hub::RecoveryActionRecord& a : actions) {
    out += std::to_string(a.at) + "/" + a.slot + "/" +
           std::to_string(static_cast<int>(a.action)) + "/" + a.unit + "/" +
           std::to_string(a.block) + "/" + std::to_string(a.token) + "/" +
           (a.retry ? "r" : "-") + ";";
  }
  return out;
}

}  // namespace

// ============================================================== codec

TEST(JournalCodec, RoundTripsEveryFieldType) {
  jn::Encoder enc;
  enc.u8(0x7f);
  enc.u16(0xbeef);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.i64(-42);
  enc.boolean(true);
  enc.boolean(false);
  enc.str("slot/name");
  enc.str("");
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  enc.blob(bytes);

  jn::Decoder dec(enc.buffer());
  EXPECT_EQ(dec.u8(), 0x7f);
  EXPECT_EQ(dec.u16(), 0xbeef);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_TRUE(dec.boolean());
  EXPECT_FALSE(dec.boolean());
  EXPECT_EQ(dec.str(), "slot/name");
  EXPECT_EQ(dec.str(), "");
  EXPECT_EQ(dec.blob(), bytes);
  EXPECT_TRUE(dec.done());
}

TEST(JournalCodec, FailsClosedAndStaysFailed) {
  // A string whose announced length overruns the buffer poisons the
  // decoder: every later read yields zero, done() stays false.
  jn::Encoder enc;
  enc.u32(1000);  // str length prefix far beyond the data
  enc.u8(7);
  jn::Decoder dec(enc.buffer());
  EXPECT_EQ(dec.str(), "");
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.u64(), 0u);
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_FALSE(dec.done());

  // A boolean that is neither 0 nor 1 is malformed, not truthy.
  jn::Encoder enc2;
  enc2.u8(2);
  jn::Decoder dec2(enc2.buffer());
  (void)dec2.boolean();
  EXPECT_FALSE(dec2.ok());
}

// ================================================================ WAL

TEST(Wal, AppendScanRoundTripPreservesEverything) {
  TempDir dir;
  jn::WalWriter w;
  ASSERT_TRUE(w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kBatch));
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6};
  EXPECT_EQ(w.append(jn::WalRecordType::kFrame, "alpha", rt::msec(5), payload.data(),
                     payload.size()),
            1u);
  EXPECT_EQ(w.append(jn::WalRecordType::kSlotDown, "", rt::msec(6), nullptr, 0), 2u);
  EXPECT_TRUE(w.sync());
  w.close();

  std::vector<jn::WalRecord> seen;
  const jn::WalScanResult res = jn::scan_wal(dir.path, 0, false, [&](const jn::WalRecord& r) {
    seen.push_back(r);
    return true;
  });
  ASSERT_EQ(res.status, jn::WalScanStatus::kOk);
  EXPECT_EQ(res.records, 2u);
  EXPECT_EQ(res.last_seq, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].seq, 1u);
  EXPECT_EQ(seen[0].type, jn::WalRecordType::kFrame);
  EXPECT_EQ(seen[0].time, rt::msec(5));
  EXPECT_EQ(seen[0].slot, "alpha");
  EXPECT_EQ(seen[0].payload, payload);
  EXPECT_EQ(seen[1].seq, 2u);
  EXPECT_EQ(seen[1].slot, "");
  EXPECT_TRUE(seen[1].payload.empty());
}

TEST(Wal, RecordBytesArePinned) {
  // The on-disk record format is fixed: a scan round trip would pass
  // even if writer and reader changed the bytes together. One kFrame
  // record carrying a wire frame and one kSlotDown record, pinned as
  // "<size>:<CRC32C of the segment file>".
  TempDir dir;
  jn::WalWriter w;
  ASSERT_TRUE(w.open(dir.path, 7, 1 << 20, jn::FsyncPolicy::kNone));
  ipc::Frame hb;
  hb.type = ipc::FrameType::kHeartbeat;
  hb.seq = 5;
  hb.time = rt::msec(12);
  hb.nonce = 0x0123456789abcdefULL;
  const std::vector<std::uint8_t> frame = ipc::encode_frame(hb);
  ASSERT_EQ(w.append(jn::WalRecordType::kFrame, "slot-a", rt::msec(12), frame.data(),
                     frame.size()),
            7u);
  const std::uint8_t flags = 3;
  ASSERT_EQ(w.append(jn::WalRecordType::kSlotDown, "slot-a", -rt::msec(1), &flags, 1), 8u);
  w.close();
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const std::vector<std::uint8_t> bytes = read_file(segments[0]);
  EXPECT_EQ(std::to_string(bytes.size()) + ":" +
                std::to_string(ipc::crc32c_reference(bytes.data(), bytes.size())),
            "123:757499161");
}

TEST(Wal, RotatesBySizeAndScansAcrossSegments) {
  TempDir dir;
  // Tiny segments force a rotation every couple of records.
  write_records(dir.path, 50, /*segment_bytes=*/128);
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_GE(segments.size(), 5u) << "expected size rotation to produce many segments";

  std::uint64_t expect = 1;
  const jn::WalScanResult res = jn::scan_wal(dir.path, 0, false, [&](const jn::WalRecord& r) {
    EXPECT_EQ(r.seq, expect++);
    return true;
  });
  EXPECT_EQ(res.status, jn::WalScanStatus::kOk);
  EXPECT_EQ(res.records, 50u);
  EXPECT_EQ(res.last_seq, 50u);
}

TEST(Wal, AfterSeqSkipsCoveredRecordsAndRejectsGaps) {
  TempDir dir;
  write_records(dir.path, 10);

  // after_seq = 6: only 7..10 are delivered.
  std::vector<std::uint64_t> seqs;
  const jn::WalScanResult res = jn::scan_wal(dir.path, 6, false, [&](const jn::WalRecord& r) {
    seqs.push_back(r.seq);
    return true;
  });
  EXPECT_EQ(res.status, jn::WalScanStatus::kOk);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 9, 10}));

  // A log that STARTS beyond after_seq+1 cannot bridge the gap: the
  // checkpoint claims coverage the WAL cannot corroborate.
  TempDir dir2;
  jn::WalWriter w;
  ASSERT_TRUE(w.open(dir2.path, 5, 1 << 20, jn::FsyncPolicy::kNone));
  ASSERT_EQ(w.append(jn::WalRecordType::kTick, "", 0, nullptr, 0), 5u);
  w.close();
  const jn::WalScanResult gap = jn::scan_wal(dir2.path, 0, false, nullptr);
  EXPECT_EQ(gap.status, jn::WalScanStatus::kCorrupt);
  EXPECT_FALSE(gap.usable());
}

TEST(Wal, TruncationSweepEveryCutIsTornTailOrClean) {
  TempDir dir;
  write_records(dir.path, 6);
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const std::vector<std::uint8_t> full = read_file(segments[0]);
  ASSERT_GT(full.size(), 0u);

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_file(segments[0], std::vector<std::uint8_t>(full.begin(),
                                                      full.begin() + static_cast<long>(cut)));
    std::uint64_t count = 0;
    const jn::WalScanResult res =
        jn::scan_wal(dir.path, 0, false, [&](const jn::WalRecord&) {
          ++count;
          return true;
        });
    // Any prefix cut is the crash signature: a clean shorter log or a
    // torn tail — never kCorrupt. The surviving prefix stays readable.
    EXPECT_TRUE(res.usable()) << "cut at " << cut << ": " << res.error;
    EXPECT_EQ(res.records, count) << "cut at " << cut;
    EXPECT_LE(count, 6u);
  }
  write_file(segments[0], full);
}

TEST(Wal, RepairTruncatesTornTailAndWriterResumes) {
  TempDir dir;
  write_records(dir.path, 4);
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  // Cut the last record short by 3 bytes.
  bytes.resize(bytes.size() - 3);
  write_file(segments[0], bytes);

  const jn::WalScanResult res = jn::scan_wal(dir.path, 0, /*repair_tail=*/true, nullptr);
  EXPECT_EQ(res.status, jn::WalScanStatus::kTornTail);
  EXPECT_EQ(res.last_seq, 3u);
  EXPECT_GT(res.truncated_bytes, 0u);

  // Post-repair the file is physically clean and a resumed writer
  // continues the sequence without a gap.
  EXPECT_EQ(jn::scan_wal(dir.path, 0, false, nullptr).status, jn::WalScanStatus::kOk);
  jn::WalWriter w;
  ASSERT_TRUE(w.open(dir.path, res.last_seq + 1, 1 << 20, jn::FsyncPolicy::kNone));
  EXPECT_EQ(w.append(jn::WalRecordType::kTick, "", 0, nullptr, 0), 4u);
  w.close();
  const jn::WalScanResult resumed = jn::scan_wal(dir.path, 0, false, nullptr);
  EXPECT_EQ(resumed.status, jn::WalScanStatus::kOk);
  EXPECT_EQ(resumed.last_seq, 4u);
}

TEST(Wal, ByteFlipSweepMidLogFailsClosedTailTears) {
  TempDir dir;
  write_records(dir.path, 5);
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const std::vector<std::uint8_t> full = read_file(segments[0]);

  // Find where the last record starts: scan the clean file and count
  // bytes of the first 4 records.
  std::vector<std::uint8_t> lens;
  std::size_t last_record_start = 0;
  {
    std::size_t off = 0;
    int n = 0;
    while (n < 4) {
      std::uint32_t body_len = 0;
      for (int i = 0; i < 4; ++i) {
        body_len |= static_cast<std::uint32_t>(full[off + 8 + static_cast<std::size_t>(i)])
                    << (8 * i);
      }
      off += jn::kWalRecordHeader + body_len;
      ++n;
    }
    last_record_start = off;
  }

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::vector<std::uint8_t> bytes = full;
    bytes[at] ^= 0x40;
    write_file(segments[0], bytes);
    const jn::WalScanResult res = jn::scan_wal(dir.path, 0, false, nullptr);
    if (at < last_record_start) {
      // Damage with a validating record after it: the log lies about
      // history — fail closed, never replay around it.
      EXPECT_EQ(res.status, jn::WalScanStatus::kCorrupt) << "flip at " << at;
    } else {
      // Damage confined to the physically last record: crash signature.
      EXPECT_EQ(res.status, jn::WalScanStatus::kTornTail) << "flip at " << at;
      EXPECT_EQ(res.last_seq, 4u) << "flip at " << at;
    }
  }
  write_file(segments[0], full);
}

TEST(Wal, SequenceGapAcrossSegmentsFailsClosed) {
  TempDir dir;
  // Segment 1 holds 1..3; a second writer opened at 5 leaves a hole.
  {
    jn::WalWriter w;
    ASSERT_TRUE(w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kNone));
    for (int i = 1; i <= 3; ++i) {
      ASSERT_EQ(w.append(jn::WalRecordType::kTick, "", rt::msec(i), nullptr, 0),
                static_cast<std::uint64_t>(i));
    }
    w.close();
  }
  {
    jn::WalWriter w;
    ASSERT_TRUE(w.open(dir.path, 5, 1 << 20, jn::FsyncPolicy::kNone));
    ASSERT_EQ(w.append(jn::WalRecordType::kTick, "", rt::msec(5), nullptr, 0), 5u);
    w.close();
  }
  const jn::WalScanResult res = jn::scan_wal(dir.path, 0, false, nullptr);
  EXPECT_EQ(res.status, jn::WalScanStatus::kCorrupt);
  EXPECT_NE(res.error.find("expected first seq"), std::string::npos) << res.error;
}

TEST(Wal, RetirementDropsCoveredSegmentsNeverTheLast) {
  TempDir dir;
  write_records(dir.path, 40, /*segment_bytes=*/128);
  const std::vector<std::string> before = jn::wal_segments(dir.path);
  ASSERT_GE(before.size(), 4u);

  // Nothing covered: nothing retired.
  EXPECT_EQ(jn::retire_wal_segments(dir.path, 0), 0u);

  // Everything covered: every segment but the active one goes.
  const std::size_t removed = jn::retire_wal_segments(dir.path, 40);
  EXPECT_EQ(removed, before.size() - 1);
  ASSERT_EQ(jn::wal_segments(dir.path).size(), 1u);

  // The partial-coverage contract: a segment is deleted only when the
  // NEXT segment starts at or before covered+1 (no record loss, ever).
  TempDir dir2;
  write_records(dir2.path, 40, /*segment_bytes=*/128);
  const std::vector<std::string> segs2 = jn::wal_segments(dir2.path);
  jn::retire_wal_segments(dir2.path, 7);
  const jn::WalScanResult res = jn::scan_wal(dir2.path, 7, false, nullptr);
  EXPECT_TRUE(res.usable());
  EXPECT_EQ(res.last_seq, 40u);
  EXPECT_LE(jn::wal_segments(dir2.path).size(), segs2.size());
}

// ========================================================= checkpoints

TEST(Checkpoint, WriteLoadRoundTripAndRetention) {
  TempDir dir;
  jn::CheckpointStore store(dir.path, /*retain=*/2);
  CounterPart a("alpha", 11), b("beta", 22);
  const std::vector<jn::Checkpointable*> parts = {&a, &b};
  std::string error;
  ASSERT_TRUE(store.write(10, parts, &error)) << error;
  a.value = 111;
  b.value = 222;
  ASSERT_TRUE(store.write(20, parts, &error)) << error;
  ASSERT_TRUE(store.write(30, parts, &error)) << error;

  // Retention keeps the newest two snapshots.
  EXPECT_EQ(store.available(), (std::vector<std::uint64_t>{20, 30}));

  a.value = 0;
  b.value = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(store.load_latest(parts, &seq, &error)) << error;
  EXPECT_EQ(seq, 30u);
  EXPECT_EQ(a.value, 111u);
  EXPECT_EQ(b.value, 222u);
}

TEST(Checkpoint, ContainerBytesArePinned) {
  // The container format is fixed, like the WAL record's: two sections
  // at coverage 42, pinned as "<size>:<CRC32C of the file>".
  TempDir dir;
  jn::CheckpointStore store(dir.path, 1);
  CounterPart a("alpha", 0x1122334455667788ULL), b("beta", 9);
  b.version = 3;
  std::string error;
  ASSERT_TRUE(store.write(42, {&a, &b}, &error)) << error;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(std::filesystem::path(files[0]).filename().string(),
            "ckpt-00000000000000000042.bin");
  const std::vector<std::uint8_t> bytes = read_file(files[0]);
  EXPECT_EQ(std::to_string(bytes.size()) + ":" +
                std::to_string(ipc::crc32c_reference(bytes.data(), bytes.size())),
            "77:3642133953");
}

TEST(Checkpoint, NoSnapshotIsFreshStartNotAnError) {
  TempDir dir;
  jn::CheckpointStore store(dir.path, 2);
  CounterPart a("alpha", 5);
  const std::vector<jn::Checkpointable*> parts = {&a};
  std::uint64_t seq = 99;
  std::string error = "preset";
  EXPECT_FALSE(store.load_latest(parts, &seq, &error));
  EXPECT_TRUE(error.empty()) << "absence is not corruption";
}

TEST(Checkpoint, CorruptContainerFallsBackSectionFailureFailsClosed) {
  TempDir dir;
  jn::CheckpointStore store(dir.path, 4);
  CounterPart a("alpha", 7);
  const std::vector<jn::Checkpointable*> parts = {&a};
  std::string error;
  ASSERT_TRUE(store.write(10, parts, &error)) << error;
  a.value = 77;
  ASSERT_TRUE(store.write(20, parts, &error)) << error;

  // Flip a byte in the NEWEST snapshot: container checksum rejects it
  // and the loader falls back to the older one.
  const std::string newest = dir.path + "/ckpt-00000000000000000020.bin";
  std::vector<std::uint8_t> bytes = read_file(newest);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() / 2] ^= 0xff;
  write_file(newest, bytes);
  a.value = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(store.load_latest(parts, &seq, &error)) << error;
  EXPECT_EQ(seq, 10u);
  EXPECT_EQ(a.value, 7u);

  // A checksum-VALID snapshot whose section refuses to load is a
  // software mismatch: the whole recovery fails closed, no fallback.
  TempDir dir2;
  jn::CheckpointStore store2(dir2.path, 4);
  CounterPart c("gamma", 9);
  const std::vector<jn::Checkpointable*> parts2 = {&c};
  ASSERT_TRUE(store2.write(5, parts2, &error)) << error;
  c.refuse_load = true;
  std::uint64_t seq2 = 0;
  std::string error2;
  EXPECT_FALSE(store2.load_latest(parts2, &seq2, &error2));
  EXPECT_FALSE(error2.empty());
}

TEST(Checkpoint, LeftoverTmpFileIsIgnored) {
  TempDir dir;
  jn::CheckpointStore store(dir.path, 2);
  CounterPart a("alpha", 3);
  const std::vector<jn::Checkpointable*> parts = {&a};
  std::string error;
  ASSERT_TRUE(store.write(10, parts, &error)) << error;
  // A crash mid-write leaves a .tmp: neither loaded nor counted.
  write_file(dir.path + "/ckpt-00000000000000000099.tmp", {1, 2, 3});
  a.value = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(store.load_latest(parts, &seq, &error)) << error;
  EXPECT_EQ(seq, 10u);
  EXPECT_EQ(a.value, 3u);
}

// ===================================== checkpointable state round trips

TEST(CheckpointState, SflCountsRoundTripThenDivergenceFreeContinuation) {
  diag::IncrementalSflCounts live;
  live.add({1, 5, 9}, true);
  live.add({2, 5}, false);
  live.add({5, 9}, true);

  jn::Encoder enc;
  live.save(enc);
  diag::IncrementalSflCounts restored;
  restored.add({42}, true);  // dirty instance: load must fully overwrite
  jn::Decoder dec(enc.buffer());
  ASSERT_TRUE(restored.load(dec));
  EXPECT_TRUE(dec.done());

  // Same state now, and — the durable-hub property — same state after
  // identical further input.
  for (diag::IncrementalSflCounts* c : {&live, &restored}) c->add({5, 7}, true);
  const diag::DiagnosisReport a = live.report();
  const diag::DiagnosisReport b = restored.report();
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].block, b.ranking[i].block);
    EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score);
  }
  EXPECT_EQ(live.steps(), restored.steps());
  EXPECT_EQ(live.touched_blocks(), restored.touched_blocks());

  // Truncated state fails closed and leaves the instance empty.
  diag::IncrementalSflCounts broken;
  jn::Decoder short_dec(enc.buffer().data(), enc.buffer().size() / 2);
  EXPECT_FALSE(broken.load(short_dec));
  EXPECT_EQ(broken.steps(), 0u);
}

TEST(CheckpointState, AggregatorRoundTripKeepsRankingsAndChurnHistory) {
  fd::AggregatorConfig cfg{10, 1};
  fd::FleetAggregator live(cfg);
  feed_error(live, "s0", 5, 3);
  feed_error(live, "s1", 9, 2);

  jn::Encoder enc;
  live.save_state(enc);
  fd::FleetAggregator restored(cfg);
  feed_error(restored, "junk", 1);  // load must fully overwrite
  jn::Decoder dec(enc.buffer());
  ASSERT_TRUE(restored.load_state(dec, live.checkpoint_version()));

  EXPECT_EQ(restored.slots(), live.slots());
  EXPECT_EQ(restored.reports_ingested(), live.reports_ingested());
  EXPECT_EQ(restored.steps_ingested(), live.steps_ingested());
  EXPECT_EQ(restored.ranking_churn(), live.ranking_churn());

  // Cached rankings were re-derived, not re-counted as churn.
  const auto top_live = live.top_suspects("s0");
  const auto top_restored = restored.top_suspects("s0");
  ASSERT_EQ(top_live.size(), top_restored.size());
  for (std::size_t i = 0; i < top_live.size(); ++i) {
    EXPECT_EQ(top_live[i].block, top_restored[i].block);
    EXPECT_DOUBLE_EQ(top_live[i].score, top_restored[i].score);
  }

  // Continued identical input keeps both worlds identical (health holds
  // the convergence-gate inputs the orchestrator reads).
  feed_error(live, "s0", 5);
  feed_error(restored, "s0", 5);
  const fd::SlotHealth ha = live.health("s0");
  const fd::SlotHealth hb = restored.health("s0");
  EXPECT_EQ(ha.reports, hb.reports);
  EXPECT_EQ(ha.error_steps, hb.error_steps);
  EXPECT_EQ(ha.churn, hb.churn);
  EXPECT_EQ(ha.top_block, hb.top_block);

  // Wrong version fails closed.
  jn::Decoder dec2(enc.buffer());
  fd::FleetAggregator v2(cfg);
  EXPECT_FALSE(v2.load_state(dec2, 999));
}

TEST(CheckpointState, AggregatorVersion1ImageFailsClosed) {
  // Version 1 of the "fleetdiag" part also carried a fleet-wide
  // accumulator and its refresh stamps. Written as that version used to
  // write it, the image must be refused, not read as today's layout.
  struct AggregatorV1 : jn::Checkpointable {
    diag::IncrementalSflCounts counts;
    std::string checkpoint_name() const override { return "fleetdiag"; }
    std::uint32_t checkpoint_version() const override { return 1; }
    void save_state(jn::Encoder& out) const override {
      out.u64(1);         // reports
      out.u64(2);         // steps
      out.u64(1);         // churn
      counts.save(out);   // the fleet accumulator
      out.u64(1);         // fleet reports
      out.u64(1);         // fleet reports at the last refresh
      out.u32(1);         // one slot
      out.str("s0");
      counts.save(out);
      out.u64(1);         // slot reports
      out.u64(1);         // slot reports at the last refresh
      out.u64(1);         // slot churn
    }
    bool load_state(jn::Decoder&, std::uint32_t) override { return false; }
  };
  AggregatorV1 old;
  old.counts.add({5}, true);
  old.counts.add({6}, false);

  jn::Encoder enc;
  old.save_state(enc);
  fd::FleetAggregator agg(fd::AggregatorConfig{10, 1});
  jn::Decoder dec(enc.buffer());
  EXPECT_FALSE(agg.load_state(dec, 1));
  EXPECT_EQ(agg.slot_count(), 0u);

  TempDir dir;
  jn::CheckpointStore store(dir.path, 2);
  std::string err;
  ASSERT_TRUE(store.write(7, {&old}, &err)) << err;
  fd::FleetAggregator from_disk(fd::AggregatorConfig{10, 1});
  std::uint64_t seq = 0;
  EXPECT_FALSE(store.load_latest({&from_disk}, &seq, &err));
  EXPECT_EQ(from_disk.slot_count(), 0u);
  EXPECT_EQ(from_disk.reports_ingested(), 0u);
}

TEST(CheckpointState, OrchestratorVersion1ImageFailsClosed) {
  // Version 1 of "hub.recovery" carried a send-failure count between
  // the recovered and policy-denied counters. Its image is refused, in
  // memory and through the checkpoint store.
  struct OrchestratorV1 : jn::Checkpointable {
    std::string checkpoint_name() const override { return "hub.recovery"; }
    std::uint32_t checkpoint_version() const override { return 1; }
    void save_state(jn::Encoder& out) const override {
      for (int i = 0; i < 16; ++i) out.u64(0);  // stats, send failures included
      out.u64(0);                                // token counter
      out.i64(4);                                // tokens
      out.i64(0);                                // last refill
      rec::RecoveryEscalator(rec::EscalationConfig{}).save(out);
      out.u32(0);  // actions
      out.u32(0);  // slots
    }
    bool load_state(jn::Decoder&, std::uint32_t) override { return false; }
  };
  OrchestratorV1 old;
  jn::Encoder enc;
  old.save_state(enc);
  fd::FleetAggregator agg(fd::AggregatorConfig{10, 1});
  hub::RecoveryConfig cfg;
  cfg.enabled = true;
  hub::RecoveryOrchestrator orch(cfg, agg);
  jn::Decoder dec(enc.buffer());
  EXPECT_FALSE(orch.load_state(dec, 1));

  TempDir dir;
  jn::CheckpointStore store(dir.path, 2);
  std::string err;
  ASSERT_TRUE(store.write(7, {&old}, &err)) << err;
  hub::RecoveryOrchestrator from_disk(cfg, agg);
  std::uint64_t seq = 0;
  EXPECT_FALSE(store.load_latest({&from_disk}, &seq, &err));
  EXPECT_EQ(from_disk.stats().sent, 0u);
}

TEST(CheckpointState, OrchestratorRoundTripContinuesLadderIdentically) {
  // Drive a live orchestrator mid-ladder, snapshot it, restore into a
  // fresh instance, then continue BOTH with identical input: actions
  // and stats must stay equal — ladder position, cooldowns, token
  // bucket and idempotency tokens all survived.
  hub::RecoveryConfig cfg;
  cfg.enabled = true;
  cfg.stable_reports = 2;
  cfg.token_capacity = 4;
  cfg.token_refill_every = rt::msec(100);
  cfg.cooldown = rt::msec(100);
  cfg.cooldown_jitter = 0;
  cfg.ack_timeout = rt::msec(50);
  cfg.max_retries = 1;
  cfg.flap_threshold = 3;
  cfg.success_reports = 2;
  cfg.escalation.failures_per_level = 1;
  cfg.escalation.window = rt::sec(60);

  fd::AggregatorConfig acfg{10, 1};
  fd::FleetAggregator agg_live(acfg);
  hub::RecoveryOrchestrator live(cfg, agg_live);
  std::vector<ipc::Frame> live_cmds;
  live.set_send([&](const std::string&, const ipc::Frame& f) {
    live_cmds.push_back(f);
    return true;
  });
  live.set_component_of([](std::size_t b) { return "comp" + std::to_string(b); });

  live.slot_up("s0", ipc::kProtocolVersion);
  feed_error(agg_live, "s0", 5);
  live.tick(rt::msec(1));
  feed_error(agg_live, "s0", 5, 2);
  live.tick(rt::msec(10));  // first action (kResync) goes out
  ASSERT_EQ(live_cmds.size(), 1u);
  {
    ipc::Frame ack;
    ack.type = ipc::FrameType::kRecoverAck;
    ack.action = live_cmds[0].action;
    ack.token = live_cmds[0].token;
    ack.unit = live_cmds[0].unit;
    ack.ok = true;
    live.on_ack("s0", ack);
  }
  feed_error(agg_live, "s0", 5);  // repair did not take: mid-ladder now

  // Snapshot both halves of the diagnosis->action pipeline.
  jn::Encoder agg_enc, orch_enc;
  agg_live.save_state(agg_enc);
  live.save_state(orch_enc);

  fd::FleetAggregator agg_restored(acfg);
  hub::RecoveryOrchestrator restored(cfg, agg_restored);
  std::vector<ipc::Frame> restored_cmds;
  restored.set_send([&](const std::string&, const ipc::Frame& f) {
    restored_cmds.push_back(f);
    return true;
  });
  restored.set_component_of([](std::size_t b) { return "comp" + std::to_string(b); });
  jn::Decoder agg_dec(agg_enc.buffer());
  ASSERT_TRUE(agg_restored.load_state(agg_dec, agg_live.checkpoint_version()));
  jn::Decoder orch_dec(orch_enc.buffer());
  ASSERT_TRUE(restored.load_state(orch_dec, live.checkpoint_version()));

  EXPECT_EQ(stats_key(restored.stats()), stats_key(live.stats()));
  EXPECT_EQ(actions_key(restored.actions()), actions_key(live.actions()));

  // Continue both worlds identically: next action must be the SAME
  // ladder rung with the SAME idempotency token at the SAME time.
  const auto advance = [](fd::FleetAggregator& agg, hub::RecoveryOrchestrator& orch) {
    feed_error(agg, "s0", 5);
    orch.tick(rt::msec(250));
    feed_error(agg, "s0", 5);
    orch.tick(rt::msec(400));
  };
  advance(agg_live, live);
  advance(agg_restored, restored);
  ASSERT_EQ(live_cmds.size(), restored_cmds.size() + 1)
      << "restored world missed the pre-snapshot command only";
  const ipc::Frame& l = live_cmds.back();
  const ipc::Frame& r = restored_cmds.back();
  EXPECT_EQ(l.action, r.action);
  EXPECT_EQ(l.action, static_cast<std::uint8_t>(rec::RecoveryAction::kRestartUnit));
  EXPECT_EQ(l.token, r.token);
  EXPECT_EQ(l.unit, r.unit);
  EXPECT_EQ(l.block, r.block);
  EXPECT_EQ(stats_key(restored.stats()), stats_key(live.stats()));
  EXPECT_EQ(actions_key(restored.actions()), actions_key(live.actions()));
}

// ========================================================== HubJournal

TEST(HubJournal, RecoverEmptyDirIsFreshStartAndArmsWriter) {
  TempDir dir;
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  const jn::JournalRecoveryInfo info = journal.recover({}, sink);
  EXPECT_TRUE(info.ok);
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.from_checkpoint);
  EXPECT_EQ(info.replayed_records, 0u);
  EXPECT_TRUE(journal.active());
  journal.append_tick(rt::msec(1));
  EXPECT_EQ(journal.last_seq(), 1u);
}

TEST(HubJournal, ReplaysTailAfterCheckpointThroughSink) {
  TempDir dir;
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  cfg.checkpoint_every_records = 0;  // only explicit checkpoints
  CounterPart part("part", 1);
  const std::vector<jn::Checkpointable*> parts = {&part};

  // Session 1: two ticks, checkpoint, two more ticks, crash.
  {
    jn::HubJournal journal(cfg, nullptr);
    CountingSink sink;
    ASSERT_TRUE(journal.recover(parts, sink).ok);
    journal.append_tick(rt::msec(1));
    journal.append_tick(rt::msec(2));
    part.value = 42;
    ASSERT_TRUE(journal.checkpoint_now(parts));
    journal.append_tick(rt::msec(3));
    journal.append_tick(rt::msec(4));
    journal.on_batch_end(parts);  // kBatch fsync
    journal.abandon();
  }

  // Session 2: checkpoint restores, only the tail replays.
  part.value = 0;
  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  const jn::JournalRecoveryInfo info = journal.recover(parts, sink);
  ASSERT_TRUE(info.ok) << info.error;
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.checkpoint_seq, 2u);
  EXPECT_EQ(part.value, 42u);
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ(sink.ticks, 2u);
  EXPECT_EQ(sink.tick_times, (std::vector<rt::SimTime>{rt::msec(3), rt::msec(4)}));
  // The writer resumes exactly after the last journaled record.
  journal.append_tick(rt::msec(5));
  EXPECT_EQ(journal.last_seq(), 5u);
}

TEST(HubJournal, MidLogCorruptionFailsRecoveryClosed) {
  TempDir dir;
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  {
    jn::HubJournal journal(cfg, nullptr);
    CountingSink sink;
    ASSERT_TRUE(journal.recover({}, sink).ok);
    journal.append_tick(rt::msec(1));
    journal.append_tick(rt::msec(2));
    journal.append_tick(rt::msec(3));
    journal.on_batch_end({});
    journal.abandon();
  }
  // Flip a byte in the FIRST record (valid records follow): kCorrupt.
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  bytes[jn::kWalRecordHeader + 2] ^= 0x01;
  write_file(segments[0], bytes);

  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  const jn::JournalRecoveryInfo info = journal.recover({}, sink);
  EXPECT_FALSE(info.ok);
  EXPECT_EQ(info.wal_status, jn::WalScanStatus::kCorrupt);
  EXPECT_FALSE(journal.active()) << "a failed recovery must not arm the writer";
  journal.append_tick(rt::msec(9));  // ignored, not a crash
  EXPECT_EQ(journal.wal_stats().records, 0u);
}

TEST(HubJournal, UndecodableFramePayloadFailsRecoveryClosed) {
  TempDir dir;
  // A checksum-valid WAL record whose payload is not a decodable wire
  // frame: the WAL layer accepts it, the dispatch layer must refuse.
  {
    jn::WalWriter w;
    ASSERT_TRUE(w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kNone));
    const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00};
    ASSERT_EQ(w.append(jn::WalRecordType::kFrame, "s0", rt::msec(1), garbage.data(),
                       garbage.size()),
              1u);
    w.close();
  }
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  const jn::JournalRecoveryInfo info = journal.recover({}, sink);
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error.find("undecodable"), std::string::npos) << info.error;
  EXPECT_EQ(sink.frames, 0u);
}

TEST(HubJournal, SlotDownFlagsReplayAndUnknownBitsFailClosed) {
  // kSlotDown payload: bit 0 orderly, bit 1 failed. The 0/1 payloads
  // written before the failed bit existed replay as before; any other
  // bit refuses recovery.
  jn::JournalConfig cfg;
  cfg.enabled = true;
  for (unsigned flags = 0; flags < 8; ++flags) {
    TempDir dir;
    {
      jn::WalWriter w;
      ASSERT_TRUE(w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kNone));
      const std::uint8_t payload = static_cast<std::uint8_t>(flags);
      ASSERT_EQ(w.append(jn::WalRecordType::kSlotDown, "s0", rt::msec(1), &payload, 1), 1u);
      w.close();
    }
    cfg.dir = dir.path;
    jn::HubJournal journal(cfg, nullptr);
    CountingSink sink;
    const jn::JournalRecoveryInfo info = journal.recover({}, sink);
    if (flags < 4) {
      ASSERT_TRUE(info.ok) << "flags " << flags << ": " << info.error;
      ASSERT_EQ(sink.down_flags.size(), 1u);
      EXPECT_EQ(sink.down_flags[0].first, (flags & 1) != 0) << flags;
      EXPECT_EQ(sink.down_flags[0].second, (flags & 2) != 0) << flags;
    } else {
      EXPECT_FALSE(info.ok) << "flags " << flags;
      EXPECT_NE(info.error.find("slot-down"), std::string::npos) << info.error;
      EXPECT_EQ(sink.downs, 0u);
    }
  }

  // append_slot_down writes the bits replay reads.
  TempDir dir;
  cfg.dir = dir.path;
  {
    jn::HubJournal journal(cfg, nullptr);
    CountingSink sink;
    ASSERT_TRUE(journal.recover({}, sink).ok);
    journal.append_slot_down("s0", true, false, rt::msec(1));
    journal.append_slot_down("s0", false, true, rt::msec(2));
    journal.on_batch_end({});
    journal.abandon();
  }
  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  ASSERT_TRUE(journal.recover({}, sink).ok);
  EXPECT_EQ(sink.down_flags,
            (std::vector<std::pair<bool, bool>>{{true, false}, {false, true}}));
}

TEST(HubJournal, FrameSealedWithTheJournalChecksumFailsRecoveryClosed) {
  // Frames carry CRC32C; the WAL record around them carries FNV-1a. A
  // frame sealed with FNV-1a (as wire frames once were) sits in a valid
  // record, and recovery must refuse it rather than replay it.
  ipc::Frame spectrum;
  spectrum.type = ipc::FrameType::kSpectrum;
  spectrum.block_count = 64;
  spectrum.spectra.push_back({true, {3, 9, 27}});
  const std::vector<std::uint8_t> current = ipc::encode_frame(spectrum);
  ASSERT_FALSE(current.empty());
  std::vector<std::uint8_t> fnv_sealed = current;
  const std::uint32_t fnv =
      jn::fnv1a32(current.data() + ipc::kHeaderSize, current.size() - ipc::kHeaderSize);
  for (int i = 0; i < 4; ++i) fnv_sealed[24 + i] = static_cast<std::uint8_t>(fnv >> (8 * i));

  for (const bool old_frame : {false, true}) {
    TempDir dir;
    {
      const std::vector<std::uint8_t>& frame = old_frame ? fnv_sealed : current;
      jn::WalWriter w;
      ASSERT_TRUE(w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kNone));
      ASSERT_EQ(w.append(jn::WalRecordType::kFrame, "s0", rt::msec(1), frame.data(),
                         frame.size()),
                1u);
      w.close();
    }
    jn::JournalConfig cfg;
    cfg.enabled = true;
    cfg.dir = dir.path;
    jn::HubJournal journal(cfg, nullptr);
    CountingSink sink;
    const jn::JournalRecoveryInfo info = journal.recover({}, sink);
    EXPECT_EQ(info.ok, !old_frame) << info.error;
    EXPECT_EQ(sink.frames, old_frame ? 0u : 1u);
  }
}

TEST(HubJournal, CheckpointRetiresCoveredSegments) {
  TempDir dir;
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  cfg.segment_bytes = 128;  // rotate fast
  cfg.checkpoint_every_records = 0;
  jn::HubJournal journal(cfg, nullptr);
  CountingSink sink;
  ASSERT_TRUE(journal.recover({}, sink).ok);
  for (int i = 0; i < 40; ++i) journal.append_tick(rt::msec(i));
  ASSERT_GE(jn::wal_segments(dir.path).size(), 4u);
  ASSERT_TRUE(journal.checkpoint_now({}));
  // Everything up to last_seq is covered: only the active segment stays.
  EXPECT_EQ(jn::wal_segments(dir.path).size(), 1u);
  EXPECT_EQ(journal.checkpoint_stats().written, 1u);
}

// =============================================== fork + SIGKILL smoke

TEST(HubJournal, EveryRecordFsyncSurvivesSigkill) {
  TempDir dir;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append with the strongest policy, reporting each acked
    // sequence over the pipe, until killed.
    ::close(pipefd[0]);
    jn::WalWriter w;
    if (!w.open(dir.path, 1, 1 << 20, jn::FsyncPolicy::kEveryRecord)) ::_exit(2);
    for (std::uint64_t i = 1; i <= 100000; ++i) {
      const std::vector<std::uint8_t> payload(32, static_cast<std::uint8_t>(i));
      if (w.append(jn::WalRecordType::kFrame, "s", static_cast<rt::SimTime>(i),
                   payload.data(), payload.size()) != i) {
        ::_exit(3);
      }
      if (::write(pipefd[1], &i, sizeof i) != sizeof i) ::_exit(0);
    }
    ::_exit(0);
  }
  ::close(pipefd[1]);
  std::uint64_t acked = 0, got = 0;
  while (acked < 200 && ::read(pipefd[0], &got, sizeof got) == sizeof got) acked = got;
  ASSERT_GE(acked, 200u) << "child died before enough appends";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ::close(pipefd[0]);

  // Every append acked before the kill was fsynced before the ack: the
  // scan must deliver at least that prefix (a torn final record from
  // the in-flight append is fine — that's what repair is for).
  const jn::WalScanResult res = jn::scan_wal(dir.path, 0, /*repair_tail=*/true, nullptr);
  EXPECT_TRUE(res.usable()) << res.error;
  EXPECT_GE(res.last_seq, acked);
}

// ============================================ end-to-end crash restart

TEST(JournalCampaign, CrashRestartScoresByteIdenticalToGolden) {
  // The acceptance surface: a recovery campaign whose hub is SIGKILLed
  // (simulate_crash: no sync, no checkpoint, no goodbyes) mid-scenario
  // and restarted from its journal must produce the byte-identical
  // report of an uninterrupted run — rankings, ladder, repair times,
  // everything in the canonical JSON.
  tk::RecoveryCampaignConfig cfg;
  cfg.scenarios = 2;
  cfg.seed = 101;
  const std::string golden = tk::RecoveryCampaign(cfg).run().to_json();

  TempDir root;
  tk::RecoveryCampaignConfig crash_cfg = cfg;
  crash_cfg.journal.enabled = true;
  crash_cfg.journal_root = root.path;
  crash_cfg.crash_at_command = 30;
  const std::string crashed = tk::RecoveryCampaign(crash_cfg).run().to_json();
  EXPECT_EQ(crashed, golden);

  // And the restart point must not matter either.
  crash_cfg.crash_at_command = 55;
  EXPECT_EQ(tk::RecoveryCampaign(crash_cfg).run().to_json(), golden);
}

TEST(JournalCampaign, CrashRestartIsShardInvariant) {
  tk::RecoveryCampaignConfig cfg;
  cfg.scenarios = 1;
  cfg.seed = 77;
  TempDir root;
  cfg.journal.enabled = true;
  cfg.journal_root = root.path;
  cfg.crash_at_command = 40;

  cfg.shards = 1;
  const std::string one = tk::RecoveryCampaign(cfg).run().to_json();
  cfg.shards = 2;
  const std::string two = tk::RecoveryCampaign(cfg).run().to_json();
  cfg.shards = 4;
  const std::string four = tk::RecoveryCampaign(cfg).run().to_json();
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);

  // The crash drill must match the journal-disabled golden at any
  // shard count too.
  tk::RecoveryCampaignConfig plain = cfg;
  plain.journal = trader::journal::JournalConfig{};
  plain.crash_at_command = SIZE_MAX;
  plain.shards = 1;
  EXPECT_EQ(tk::RecoveryCampaign(plain).run().to_json(), one);
}

TEST(JournalHub, CleanStopCheckpointsAndRestartRestoresState) {
  // Hub-level durability without the campaign: ingest diagnosis
  // evidence over a real socket, stop cleanly (checkpoint), restart on
  // the same dir and observe identical diagnosis state with no WAL
  // tail replay.
  TempDir dir;
  hub::HubConfig cfg;
  cfg.probe_liveness = false;
  cfg.diag.refresh_every = 1;
  cfg.journal.enabled = true;
  cfg.journal.dir = dir.path;

  std::uint64_t reports_before = 0;
  std::uint64_t events_before = 0;
  {
    hub::AwarenessHub h(cfg);
    h.add_slot("s0");
    ASSERT_TRUE(h.start());
    // Loopback publisher on this thread.
    hub::SuoLink link;
    ASSERT_EQ(link.claim(h.path(), "s0", &h), ipc::FrameType::kHelloAck);
    ipc::FramedSocket& sock = link.socket();

    std::uint32_t seq = 0;
    for (int i = 0; i < 5; ++i) {
      ipc::Frame f;
      f.type = ipc::FrameType::kSpectrum;
      f.seq = ++seq;
      f.block_count = 64;
      f.spectra.push_back({true, {7}});
      f.spectra.push_back({false, {8}});
      ASSERT_TRUE(sock.send(f));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (h.diagnosis().health("s0").reports < 5) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      ASSERT_GE(h.poll(10), 0);
    }
    reports_before = h.diagnosis().health("s0").reports;
    events_before = h.events_ingested();
    h.stop();  // clean stop = checkpoint
  }

  hub::AwarenessHub h2(cfg);
  h2.add_slot("s0");
  ASSERT_TRUE(h2.start());
  const jn::JournalRecoveryInfo& info = h2.journal_recovery();
  EXPECT_TRUE(info.ok) << info.error;
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.replayed_records, 0u) << "clean stop leaves no WAL tail";
  EXPECT_EQ(h2.diagnosis().health("s0").reports, reports_before);
  EXPECT_EQ(h2.events_ingested(), events_before);
  const auto top = h2.diagnosis().top_suspects("s0");
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].block, 7u);
  // The restored slot is down (no socket survived) but reconnectable.
  EXPECT_FALSE(h2.slot_up("s0"));
  h2.stop();
}

TEST(JournalHub, CorruptJournalRefusesToStart) {
  TempDir dir;
  hub::HubConfig cfg;
  cfg.probe_liveness = false;
  cfg.recovery.enabled = true;  // actuation ticks populate the WAL
  cfg.journal.enabled = true;
  cfg.journal.dir = dir.path;
  {
    hub::AwarenessHub h(cfg);
    h.add_slot("s0");
    ASSERT_TRUE(h.start());
    for (int i = 0; i < 3; ++i) ASSERT_GE(h.poll(0), 0);
    h.simulate_crash();
  }
  // Corrupt the WAL mid-log: the restarted hub must fail closed.
  const std::vector<std::string> segments = jn::wal_segments(dir.path);
  ASSERT_FALSE(segments.empty());
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  ASSERT_GT(bytes.size(), jn::kWalRecordHeader + 4);
  bytes[jn::kWalRecordHeader + 2] ^= 0x01;
  write_file(segments[0], bytes);

  hub::AwarenessHub h2(cfg);
  h2.add_slot("s0");
  EXPECT_FALSE(h2.start()) << "a lying journal must not serve guessed state";
  EXPECT_FALSE(h2.journal_recovery().ok);
}

TEST(JournalHub, ReplayKeepsAPermanentlyFailedSlotFailed) {
  // A crash-looping SUO spends its slot's reconnect budget: the slot is
  // failed for good and its diagnosis state retired. A hub restarted
  // from the journal must reach the same verdict, not admit the slot.
  TempDir dir;
  hub::HubConfig cfg;
  cfg.probe_liveness = false;
  cfg.heartbeat_interval_ms = 1000;  // every session below is "unstable"
  cfg.supervisor.max_attempts = 2;
  cfg.supervisor.backoff_initial_ms = 1;
  cfg.supervisor.backoff_max_ms = 1;
  cfg.diag.refresh_every = 1;
  cfg.journal.enabled = true;
  cfg.journal.dir = dir.path;

  int claims = 0;
  {
    hub::AwarenessHub h(cfg);
    h.add_slot("tv0");
    ASSERT_TRUE(h.start());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!h.slot_supervisor("tv0")->exhausted()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      hub::SuoLink link;
      if (link.claim(h.path(), "tv0", &h) != ipc::FrameType::kHelloAck) {
        ASSERT_GE(h.poll(1), 0);  // inside the backoff window
        continue;
      }
      if (++claims == 1) {
        // Diagnosis evidence the failed slot must not keep.
        ipc::Frame f;
        f.type = ipc::FrameType::kSpectrum;
        f.seq = link.next_seq();
        f.block_count = 64;
        f.spectra.push_back({true, {7}});
        ASSERT_TRUE(link.socket().send(f));
        while (h.diagnosis().health("tv0").reports < 1) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline);
          ASSERT_GE(h.poll(10), 0);
        }
      }
      link.socket().close();  // crash: no kShutdown
      while (h.slot_up("tv0")) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        ASSERT_GE(h.poll(10), 0);
      }
    }
    EXPECT_EQ(claims, 3);
    EXPECT_EQ(h.diagnosis().slot_count(), 0u);
    h.simulate_crash();
  }

  hub::AwarenessHub h2(cfg);
  h2.add_slot("tv0");
  ASSERT_TRUE(h2.start());
  const jn::JournalRecoveryInfo& info = h2.journal_recovery();
  ASSERT_TRUE(info.ok) << info.error;
  EXPECT_EQ(info.replayed_records, static_cast<std::uint64_t>(2 * claims + 1));
  EXPECT_TRUE(h2.slot_supervisor("tv0")->exhausted());
  EXPECT_EQ(h2.diagnosis().slot_count(), 0u);
  hub::SuoLink link;
  EXPECT_EQ(link.claim(h2.path(), "tv0", &h2), ipc::FrameType::kShutdown) << "slot failed";
  EXPECT_FALSE(h2.slot_up("tv0"));
  h2.stop();
}
