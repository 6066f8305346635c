// E17a: the raw cost of the process boundary (src/ipc).
//
// The paper's awareness framework observes the SUO "with minimal
// probe effect"; moving the SUO out of process trades shared-memory
// observation for a wire. This bench quantifies that trade on the two
// transports the repo ships, below the hub (E17) that multiplexes them:
//   (a) frame throughput — how many observable-update frames per
//       second one link carries (encode -> kernel stream -> decode);
//   (b) round-trip time — the p50/p99 latency of one kHeartbeat ->
//       kHeartbeatAck exchange against an echo thread, the exchange
//       the hub's liveness probes make with every SUO.
// Results land in BENCH_ipc.json for scripts/check.sh.
#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "ipc/transport.hpp"
#include "ipc/wire.hpp"

namespace rt = trader::runtime;
namespace ipc = trader::ipc;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

double now_ms() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ipc::Frame sample_output_frame() {
  ipc::Frame f;
  f.type = ipc::FrameType::kOutputEvent;
  f.time = rt::msec(20);
  f.event.topic = "tv.output";
  f.event.name = "sound_level";
  f.event.fields["value"] = std::int64_t{35};
  f.event.fields["quality"] = 0.97;
  return f;
}

/// The two kernel streams FramedSocket runs over; the names label the
/// BENCH_ipc.json rows.
enum class Transport : std::uint8_t { kSocketpair, kUnix };

const char* to_string(Transport t) { return t == Transport::kSocketpair ? "socketpair" : "unix"; }

/// Make one connected FramedSocket pair on the requested transport.
std::pair<ipc::FramedSocket, ipc::FramedSocket> make_pair_on(Transport transport) {
  if (transport == Transport::kSocketpair) return ipc::socketpair_transport();
  const std::string path = "@trader-bench-ipc-" + std::to_string(::getpid());
  const int listener = ipc::listen_unix(path);
  const int client = ipc::connect_unix_retry(path, 2000);
  const int server = ipc::accept_unix(listener, 2000);
  ::close(listener);
  return {ipc::FramedSocket(server), ipc::FramedSocket(client)};
}

struct ThroughputRun {
  double frames_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

/// One writer thread floods frames; the main thread drains and counts.
ThroughputRun run_throughput(Transport transport, int frames) {
  auto [rx, tx] = make_pair_on(transport);
  const auto encoded_size = ipc::encode_frame(sample_output_frame()).size();

  std::thread writer([&tx = tx, frames]() {
    const ipc::Frame f = sample_output_frame();
    for (int i = 0; i < frames; ++i) {
      if (!tx.send(f)) break;
    }
    tx.close();
  });

  int received = 0;
  const double start = now_ms();
  ipc::Frame in;
  while (rx.recv(in, 2000) == ipc::FramedSocket::RecvStatus::kFrame) ++received;
  const double wall_ms = now_ms() - start;
  writer.join();

  ThroughputRun run;
  run.frames_per_sec = received / (wall_ms / 1000.0);
  run.mb_per_sec =
      static_cast<double>(received) * static_cast<double>(encoded_size) / 1e6 / (wall_ms / 1000.0);
  return run;
}

struct RttRun {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
};

/// Heartbeat round-trips against an echo thread that answers each
/// kHeartbeat with a kHeartbeatAck carrying its nonce.
RttRun run_rtt(Transport transport, int rounds) {
  auto [echo_sock, probe_sock] = make_pair_on(transport);
  std::thread echo([&echo_sock = echo_sock]() {
    ipc::Frame in;
    while (echo_sock.recv(in, 2000) == ipc::FramedSocket::RecvStatus::kFrame) {
      ipc::Frame ack;
      ack.type = ipc::FrameType::kHeartbeatAck;
      ack.seq = in.seq;
      ack.nonce = in.nonce;
      if (!echo_sock.send(ack)) break;
    }
  });

  std::vector<double> samples_us;
  samples_us.reserve(static_cast<std::size_t>(rounds));
  ipc::Frame probe;
  probe.type = ipc::FrameType::kHeartbeat;
  for (int i = 0; i < rounds; ++i) {
    probe.seq = static_cast<std::uint32_t>(i);
    probe.nonce = static_cast<std::uint64_t>(i);
    ipc::Frame ack;
    const auto t0 = std::chrono::steady_clock::now();
    if (!probe_sock.send(probe) ||
        probe_sock.recv(ack, 2000) != ipc::FramedSocket::RecvStatus::kFrame) {
      break;
    }
    const auto t1 = std::chrono::steady_clock::now();
    samples_us.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(t1 - t0).count());
  }
  probe_sock.close();
  echo.join();

  RttRun run;
  if (samples_us.empty()) return run;
  std::sort(samples_us.begin(), samples_us.end());
  run.p50_us = samples_us[samples_us.size() / 2];
  run.p99_us = samples_us[samples_us.size() * 99 / 100];
  double sum = 0.0;
  for (const double s : samples_us) sum += s;
  run.mean_us = sum / static_cast<double>(samples_us.size());
  return run;
}

void report() {
  banner("E17a", "the raw cost of the process boundary (out-of-process SUO)");

  const int frames = 200000;
  const int rounds = 2000;
  const std::vector<Transport> transports{Transport::kSocketpair, Transport::kUnix};

  std::vector<ThroughputRun> tputs;
  std::vector<RttRun> rtts;
  for (const auto& t : transports) {
    tputs.push_back(run_throughput(t, frames));
    rtts.push_back(run_rtt(t, rounds));
  }

  Table t({"transport", "frames/sec", "MB/sec", "rtt p50 us", "rtt p99 us", "rtt mean us"});
  for (std::size_t i = 0; i < transports.size(); ++i) {
    t.row({to_string(transports[i]), fmt(tputs[i].frames_per_sec, 0),
           fmt(tputs[i].mb_per_sec, 1),
           fmt(rtts[i].p50_us, 1), fmt(rtts[i].p99_us, 1), fmt(rtts[i].mean_us, 1)});
  }
  t.print();
  std::printf("every observable update crosses this wire once; a 50 Hz TV emitting ~10\n"
              "observables needs ~500 frames/sec — orders of magnitude under either\n"
              "transport's ceiling, so the process boundary does not throttle awareness.\n\n");

  std::ofstream json("BENCH_ipc.json");
  json << "{\n  \"experiment\": \"bench_ipc\",\n";
  json << "  \"frames\": " << frames << ",\n  \"rtt_rounds\": " << rounds << ",\n";
  json << "  \"transports\": [\n";
  for (std::size_t i = 0; i < transports.size(); ++i) {
    json << "    {\"transport\": \"" << to_string(transports[i]) << "\""
         << ", \"frames_per_sec\": " << fmt(tputs[i].frames_per_sec, 0)
         << ", \"mb_per_sec\": " << fmt(tputs[i].mb_per_sec, 2)
         << ", \"rtt_p50_us\": " << fmt(rtts[i].p50_us, 2)
         << ", \"rtt_p99_us\": " << fmt(rtts[i].p99_us, 2)
         << ", \"rtt_mean_us\": " << fmt(rtts[i].mean_us, 2) << "}"
         << (i + 1 < transports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_ipc.json (throughput + RTT per transport)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_EncodeOutputEvent(benchmark::State& state) {
  const ipc::Frame f = sample_output_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipc::encode_frame(f));
  }
}
BENCHMARK(BM_EncodeOutputEvent);

void BM_DecodeOutputEvent(benchmark::State& state) {
  const auto bytes = ipc::encode_frame(sample_output_frame());
  for (auto _ : state) {
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    benchmark::DoNotOptimize(decoder.next(out));
  }
}
BENCHMARK(BM_DecodeOutputEvent);

void BM_SocketpairRoundTrip(benchmark::State& state) {
  auto [a, b] = ipc::socketpair_transport();
  const ipc::Frame f = sample_output_frame();
  for (auto _ : state) {
    a.send(f);
    ipc::Frame echo;
    b.recv(echo, 1000);
    b.send(echo);
    ipc::Frame back;
    a.recv(back, 1000);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SocketpairRoundTrip);

}  // namespace

TRADER_BENCH_MAIN(report)
