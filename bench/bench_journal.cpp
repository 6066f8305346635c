// E22: durable hub — what the write-ahead journal costs and what a
// restart buys back.
//
//   (a) append throughput — records/sec and MB/s per fsync policy
//       (none / batch / every-record) for frame-sized payloads; the
//       batch column is what every hub poll actually pays, the
//       every-record column prices the strongest durability contract;
//   (b) recovery time vs WAL length — a cold hub replaying 10k/50k/
//       200k journaled spectrum frames through the real dispatch
//       (frame decode + re-fold), with and without a checkpoint
//       covering most of the log: the checkpoint turns linear replay
//       into a snapshot load plus a short tail;
//   (c) checkpoint cost — snapshot write and load wall time for a
//       fleet-sized diagnosis state (slots x touched blocks).
// Everything lands in BENCH_journal.json.
#include "bench_common.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "ipc/wire.hpp"
#include "journal/checkpoint.hpp"
#include "journal/codec.hpp"
#include "journal/replay.hpp"
#include "journal/wal.hpp"

namespace fd = trader::fleetdiag;
namespace ipc = trader::ipc;
namespace jn = trader::journal;
namespace rt = trader::runtime;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

/// Scratch dir under the working directory (benches run where the
/// JSON reports land); purged and removed when done.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "bench_journal_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    if (path.empty()) return;
    jn::purge_journal_dir(path);
    ::rmdir(path.c_str());
  }
};

double wall_ms(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// A journaled spectrum frame, encoded once — the payload shape the
/// hub appends on every kSpectrum ingest.
std::vector<std::uint8_t> spectrum_payload() {
  ipc::Frame f;
  f.type = ipc::FrameType::kSpectrum;
  f.seq = 1;
  f.block_count = 2000;
  f.spectra.push_back({true, {100, 200, 300, 400}});
  f.spectra.push_back({false, {101, 201, 301, 401}});
  return ipc::encode_frame(f);
}

// ------------------------------------------------ (a) append throughput

struct AppendRun {
  std::string policy;
  std::uint64_t records = 0;
  double wall_s = 0.0;
  double records_per_sec = 0.0;
  double mb_per_sec = 0.0;
  std::uint64_t syncs = 0;
};

AppendRun run_append(jn::FsyncPolicy policy, std::uint64_t records,
                     std::uint64_t batch = 64) {
  TempDir dir;
  const std::vector<std::uint8_t> payload = spectrum_payload();
  jn::WalWriter w;
  AppendRun run;
  run.policy = jn::to_string(policy);
  run.records = records;
  if (!w.open(dir.path, 1, 8u << 20, policy)) return run;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1; i <= records; ++i) {
    w.append(jn::WalRecordType::kFrame, "tv0", static_cast<rt::SimTime>(i),
             payload.data(), payload.size());
    // Model the hub's poll boundary: one batched fsync per `batch`
    // appends (a no-op under kNone / kEveryRecord).
    if (policy == jn::FsyncPolicy::kBatch && i % batch == 0) w.sync();
  }
  w.close();
  const auto t1 = std::chrono::steady_clock::now();
  run.wall_s = wall_ms(t0, t1) / 1000.0;
  run.records_per_sec = static_cast<double>(records) / run.wall_s;
  run.mb_per_sec = static_cast<double>(w.stats().bytes) / run.wall_s / 1e6;
  run.syncs = w.stats().syncs;
  return run;
}

// ------------------------------------------------ (b) recovery vs length

struct NullSink : jn::ReplaySink {
  std::uint64_t frames = 0;
  void replay_frame(const std::string&, const ipc::Frame&) override { ++frames; }
  void replay_slot_up(const std::string&, std::uint8_t) override {}
  void replay_slot_down(const std::string&, bool, bool) override {}
  void replay_tick(rt::SimTime) override {}
};

struct RecoveryRun {
  std::uint64_t wal_records = 0;
  bool checkpointed = false;
  std::uint64_t replayed = 0;
  double recover_ms = 0.0;
  double replay_per_sec = 0.0;
};

RecoveryRun run_recovery(std::uint64_t records, bool checkpoint_midway) {
  TempDir dir;
  jn::JournalConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir.path;
  cfg.segment_bytes = 8u << 20;
  cfg.fsync = jn::FsyncPolicy::kNone;  // measure replay, not the platter
  cfg.checkpoint_every_records = 0;

  ipc::Frame frame;
  frame.type = ipc::FrameType::kSpectrum;
  frame.seq = 1;
  frame.block_count = 2000;
  frame.spectra.push_back({true, {100, 200, 300, 400}});
  frame.spectra.push_back({false, {101, 201, 301, 401}});

  // Session 1: journal `records` frames; optionally checkpoint at 90%.
  fd::FleetAggregator agg({10, 64});
  const std::vector<jn::Checkpointable*> parts = {&agg};
  {
    jn::HubJournal journal(cfg, nullptr);
    NullSink sink;
    journal.recover(parts, sink);
    const std::uint64_t ckpt_at = checkpoint_midway ? records * 9 / 10 : 0;
    for (std::uint64_t i = 1; i <= records; ++i) {
      journal.append_frame("tv0", frame);
      agg.ingest("tv0", frame.spectra);
      if (ckpt_at != 0 && i == ckpt_at) journal.checkpoint_now(parts);
    }
    journal.abandon();
  }

  // Session 2: the measured restart.
  fd::FleetAggregator cold({10, 64});
  const std::vector<jn::Checkpointable*> cold_parts = {&cold};
  jn::HubJournal journal(cfg, nullptr);
  NullSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  const jn::JournalRecoveryInfo info = journal.recover(cold_parts, sink);
  const auto t1 = std::chrono::steady_clock::now();

  RecoveryRun run;
  run.wal_records = records;
  run.checkpointed = info.from_checkpoint;
  run.replayed = info.replayed_records;
  run.recover_ms = wall_ms(t0, t1);
  run.replay_per_sec = run.recover_ms > 0.0
                           ? static_cast<double>(info.replayed_records) /
                                 (run.recover_ms / 1000.0)
                           : 0.0;
  return run;
}

// ------------------------------------------------ (c) checkpoint cost

struct CheckpointRun {
  std::size_t slots = 0;
  double write_ms = 0.0;
  double load_ms = 0.0;
  double bytes_mb = 0.0;
};

CheckpointRun run_checkpoint(std::size_t slots) {
  TempDir dir;
  fd::FleetAggregator agg({10, 16});
  for (std::size_t k = 0; k < slots; ++k) {
    const std::string slot = "tv" + std::to_string(k);
    for (std::uint32_t r = 0; r < 32; ++r) {
      agg.ingest(slot, std::vector<ipc::SpectrumStep>{
                           {r % 8 == 0, {r * 4, r * 4 + 1, r * 4 + 2}},
                           {false, {r * 4 + 3}}});
    }
  }
  const std::vector<jn::Checkpointable*> parts = {&agg};
  jn::CheckpointStore store(dir.path, 2);
  std::string error;
  const auto t0 = std::chrono::steady_clock::now();
  store.write(1, parts, &error);
  const auto t1 = std::chrono::steady_clock::now();

  fd::FleetAggregator cold({10, 16});
  const std::vector<jn::Checkpointable*> cold_parts = {&cold};
  std::uint64_t seq = 0;
  const auto t2 = std::chrono::steady_clock::now();
  store.load_latest(cold_parts, &seq, &error);
  const auto t3 = std::chrono::steady_clock::now();

  jn::Encoder size_probe;
  agg.save_state(size_probe);
  CheckpointRun run;
  run.slots = slots;
  run.write_ms = wall_ms(t0, t1);
  run.load_ms = wall_ms(t2, t3);
  run.bytes_mb = static_cast<double>(size_probe.size()) / 1e6;
  return run;
}

// ---------------------------------------------------------- the report

void report() {
  banner("E22", "durable hub: WAL append cost, checkpoint cost, recovery time");

  std::vector<AppendRun> appends;
  appends.push_back(run_append(jn::FsyncPolicy::kNone, 200000));
  appends.push_back(run_append(jn::FsyncPolicy::kBatch, 200000));
  appends.push_back(run_append(jn::FsyncPolicy::kEveryRecord, 2000));
  Table at({"fsync", "records", "records/sec", "MB/sec", "fsyncs"});
  for (const AppendRun& r : appends) {
    at.row({r.policy, fmt_int(static_cast<std::int64_t>(r.records)),
            fmt(r.records_per_sec, 0), fmt(r.mb_per_sec, 1),
            fmt_int(static_cast<std::int64_t>(r.syncs))});
  }
  at.print();
  std::printf("batch amortizes one fsync over a poll's worth of appends;\n"
              "every-record is the synchronous floor a caller can demand.\n\n");

  std::vector<RecoveryRun> recoveries;
  for (const std::uint64_t n : {std::uint64_t{10000}, std::uint64_t{50000},
                                std::uint64_t{200000}}) {
    recoveries.push_back(run_recovery(n, /*checkpoint_midway=*/false));
  }
  recoveries.push_back(run_recovery(200000, /*checkpoint_midway=*/true));
  Table rt_({"wal records", "checkpoint", "replayed", "recover ms", "replay/sec"});
  for (const RecoveryRun& r : recoveries) {
    rt_.row({fmt_int(static_cast<std::int64_t>(r.wal_records)),
             r.checkpointed ? "yes" : "no",
             fmt_int(static_cast<std::int64_t>(r.replayed)), fmt(r.recover_ms, 1),
             fmt(r.replay_per_sec, 0)});
  }
  rt_.print();
  std::printf("restart time is linear in the WAL tail; a checkpoint collapses\n"
              "the tail to the records since the last snapshot.\n\n");

  std::vector<CheckpointRun> checkpoints;
  for (const std::size_t s : {std::size_t{8}, std::size_t{64}}) {
    checkpoints.push_back(run_checkpoint(s));
  }
  Table ct({"slots", "state MB", "write ms", "load ms"});
  for (const CheckpointRun& r : checkpoints) {
    ct.row({fmt_int(static_cast<std::int64_t>(r.slots)), fmt(r.bytes_mb, 2),
            fmt(r.write_ms, 2), fmt(r.load_ms, 2)});
  }
  ct.print();
  std::printf("snapshot cost scales with live diagnosis state, not WAL length —\n"
              "the trade the checkpoint cadence knob tunes.\n\n");

  std::ofstream json("BENCH_journal.json");
  json << "{\n  \"experiment\": \"bench_journal\",\n";
  json << "  \"append\": [\n";
  for (std::size_t i = 0; i < appends.size(); ++i) {
    const AppendRun& r = appends[i];
    json << "    {\"fsync\": \"" << r.policy << "\", \"records\": " << r.records
         << ", \"records_per_sec\": " << fmt(r.records_per_sec, 0)
         << ", \"mb_per_sec\": " << fmt(r.mb_per_sec, 2)
         << ", \"fsyncs\": " << r.syncs << "}" << (i + 1 < appends.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"recovery\": [\n";
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryRun& r = recoveries[i];
    json << "    {\"wal_records\": " << r.wal_records << ", \"checkpoint\": "
         << (r.checkpointed ? "true" : "false") << ", \"replayed\": " << r.replayed
         << ", \"recover_ms\": " << fmt(r.recover_ms, 2)
         << ", \"replay_per_sec\": " << fmt(r.replay_per_sec, 0) << "}"
         << (i + 1 < recoveries.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"checkpoint\": [\n";
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointRun& r = checkpoints[i];
    json << "    {\"slots\": " << r.slots << ", \"state_mb\": " << fmt(r.bytes_mb, 3)
         << ", \"write_ms\": " << fmt(r.write_ms, 3)
         << ", \"load_ms\": " << fmt(r.load_ms, 3) << "}"
         << (i + 1 < checkpoints.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_journal.json (append throughput + recovery + checkpoint)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_WalAppend(benchmark::State& state) {
  // Hot-path cost of one journaled frame append (no fsync): encode the
  // body, checksum it, push it into the segment buffer.
  TempDir dir;
  const std::vector<std::uint8_t> payload = spectrum_payload();
  jn::WalWriter w;
  w.open(dir.path, 1, 64u << 20, jn::FsyncPolicy::kNone);
  rt::SimTime now = 0;
  for (auto _ : state) {
    now += 1;
    benchmark::DoNotOptimize(
        w.append(jn::WalRecordType::kFrame, "tv0", now, payload.data(), payload.size()));
  }
  w.close();
}
BENCHMARK(BM_WalAppend);

void BM_CheckpointCodecRoundtrip(benchmark::State& state) {
  // Pure codec cost of snapshotting one mid-sized diagnosis state.
  fd::FleetAggregator agg({10, 16});
  for (std::uint32_t r = 0; r < 64; ++r) {
    agg.ingest("tv0", std::vector<ipc::SpectrumStep>{{r % 8 == 0, {r, r + 1}},
                                                     {false, {r + 2}}});
  }
  fd::FleetAggregator cold({10, 16});
  for (auto _ : state) {
    jn::Encoder enc;
    agg.save_state(enc);
    jn::Decoder dec(enc.buffer());
    benchmark::DoNotOptimize(cold.load_state(dec, agg.checkpoint_version()));
  }
}
BENCHMARK(BM_CheckpointCodecRoundtrip);

}  // namespace

TRADER_BENCH_MAIN(report)
