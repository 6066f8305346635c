// E17: one epoll loop vs a fleet of SUO links (src/hub).
//
// src/ipc pays one blocking socket (and one monitor thread of
// attention) per SUO; the hub multiplexes every link onto a single
// epoll event loop feeding one sharded fleet. This bench measures what
// that buys at fleet scale:
//   (a) aggregate ingest throughput — event frames per second decoded
//       and published into the fleet across N concurrent connections;
//   (b) ingest latency — wall time from the client's send() to the
//       frame being decoded and published (p50/p99), timestamped
//       through the hub's ingest tap.
// The sweep {1, 8, 64, 256} connections lands in BENCH_hub.json.
#include "bench_common.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor_builder.hpp"
#include "hub/agent.hpp"
#include "hub/event_loop.hpp"
#include "hub/hub.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"
#include "runtime/stats.hpp"
#include "statemachine/definition.hpp"

namespace rt = trader::runtime;
namespace sm = trader::statemachine;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

std::string slot_name(std::size_t k) { return "c" + std::to_string(k); }

/// Minimal spec model so every connection drives a real monitor; the
/// long startup grace keeps the comparator quiet (ingest is measured,
/// not deviation policy).
sm::StateMachineDef sink_model() {
  sm::StateMachineDef def("sink");
  const auto s = def.add_state("S");
  def.add_internal(s, "sample", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
  });
  return def;
}

ipc::Frame sample_frame(std::size_t k) {
  ipc::Frame f;
  f.type = ipc::FrameType::kOutputEvent;
  f.event.topic = "out." + slot_name(k);
  f.event.name = "sample";
  f.event.fields["value"] = std::int64_t{42};
  return f;
}

struct SweepRun {
  std::size_t connections = 0;
  double frames_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;  ///< Frames per readable drain (coalescing).
};

SweepRun run_sweep(std::size_t connections, std::uint64_t total_frames) {
  hub::HubConfig config;
  config.shards = connections >= 8 ? 4 : 1;
  config.probe_liveness = false;  // blocking writers cannot answer probes
  hub::AwarenessHub awareness_hub(config);

  for (std::size_t k = 0; k < connections; ++k) {
    trader::core::MonitorBuilder builder;
    builder.model(sink_model())
        .input_topic("in." + slot_name(k))
        .output_topic("out." + slot_name(k))
        .threshold("n", 0.0, 1000)
        .startup_grace(rt::msec(1 << 30));
    awareness_hub.add_monitor(slot_name(k), slot_name(k), std::move(builder));
  }

  rt::PercentileAccumulator latency_us;
  awareness_hub.set_ingest_tap([&latency_us](const rt::Event& ev) {
    latency_us.add(static_cast<double>(hub::EventLoop::now_ns() - ev.int_field("t0")) / 1000.0);
  });
  if (!awareness_hub.start()) return {};

  // Connect + handshake every client against the live loop.
  std::vector<hub::SuoLink> clients(connections);
  for (std::size_t k = 0; k < connections; ++k) {
    if (clients[k].claim(awareness_hub.path(), slot_name(k), &awareness_hub) !=
        ipc::FrameType::kHelloAck) {
      return {};
    }
  }

  // Writer thread floods frames round-robin across every connection,
  // stamping each with its wall send time; the main thread runs the
  // event loop until everything has been decoded and published.
  const auto t_start = std::chrono::steady_clock::now();
  std::thread writer([&clients, connections, total_frames] {
    std::vector<ipc::Frame> frames;
    frames.reserve(connections);
    for (std::size_t k = 0; k < connections; ++k) frames.push_back(sample_frame(k));
    for (std::uint64_t i = 0; i < total_frames; ++i) {
      const std::size_t k = static_cast<std::size_t>(i % connections);
      frames[k].seq = static_cast<std::uint32_t>(i);
      frames[k].event.fields["t0"] = hub::EventLoop::now_ns();
      if (!clients[k].socket().send(frames[k])) break;
    }
  });

  std::uint64_t next_advance = 1;
  while (awareness_hub.events_ingested() < total_frames) {
    if (awareness_hub.poll(100) < 0) break;
    if (awareness_hub.events_ingested() >= next_advance * 8192) {
      // Drain fleet mailboxes on an epoch grid so ingest is measured
      // against a live fleet, not an ever-growing queue.
      awareness_hub.run_until(awareness_hub.now() + rt::msec(10));
      ++next_advance;
    }
  }
  const auto t_end = std::chrono::steady_clock::now();
  writer.join();

  SweepRun run;
  run.connections = connections;
  const double wall_s = std::chrono::duration<double>(t_end - t_start).count();
  run.frames_per_sec = static_cast<double>(total_frames) / wall_s;
  run.p50_us = latency_us.percentile(50.0);
  run.p99_us = latency_us.percentile(99.0);
  const rt::MetricsSnapshot snap = awareness_hub.metrics();
  const auto batch = snap.histograms.find("hub.batch_frames");
  if (batch != snap.histograms.end()) run.mean_batch = batch->second.mean();
  for (auto& c : clients) c.socket().close();
  while (awareness_hub.connection_count() > 0) awareness_hub.poll(10);
  awareness_hub.stop();
  return run;
}

void report() {
  banner("E17", "fleet ingest through one epoll hub loop");

  const std::uint64_t total_frames = 120000;
  const std::vector<std::size_t> sweep{1, 8, 64, 256};

  std::vector<SweepRun> runs;
  for (const std::size_t n : sweep) runs.push_back(run_sweep(n, total_frames));

  Table t({"connections", "frames/sec", "ingest p50 us", "ingest p99 us", "frames/drain"});
  for (const auto& r : runs) {
    t.row({fmt_int(static_cast<std::int64_t>(r.connections)), fmt(r.frames_per_sec, 0),
           fmt(r.p50_us, 1), fmt(r.p99_us, 1), fmt(r.mean_batch, 1)});
  }
  t.print();
  std::printf("one loop carries the whole fleet: per-connection cost is an epoll\n"
              "registration, not a thread. Readable-drain coalescing grows with the\n"
              "connection count, so syscalls per frame fall as the fleet widens.\n\n");

  std::ofstream json("BENCH_hub.json");
  json << "{\n  \"experiment\": \"bench_hub\",\n";
  json << "  \"total_frames\": " << total_frames << ",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "    {\"connections\": " << runs[i].connections
         << ", \"frames_per_sec\": " << fmt(runs[i].frames_per_sec, 0)
         << ", \"ingest_p50_us\": " << fmt(runs[i].p50_us, 2)
         << ", \"ingest_p99_us\": " << fmt(runs[i].p99_us, 2)
         << ", \"frames_per_drain\": " << fmt(runs[i].mean_batch, 2) << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_hub.json (throughput + ingest latency per connection count)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_EventLoopWakeDispatch(benchmark::State& state) {
  hub::EventLoop loop;
  for (auto _ : state) {
    loop.wake();
    loop.poll(0);
  }
}
BENCHMARK(BM_EventLoopWakeDispatch);

void BM_EventLoopTimerAddCancel(benchmark::State& state) {
  hub::EventLoop loop;
  for (auto _ : state) {
    const auto id = loop.add_timer(1'000'000'000, 0, [] {});
    loop.cancel_timer(id);
  }
}
BENCHMARK(BM_EventLoopTimerAddCancel);

void BM_HubIngestOneFrame(benchmark::State& state) {
  hub::HubConfig config;
  config.probe_liveness = false;
  hub::AwarenessHub awareness_hub(config);
  awareness_hub.add_slot("c0");
  awareness_hub.start();
  hub::SuoLink link;
  if (link.claim(awareness_hub.path(), "c0", &awareness_hub) != ipc::FrameType::kHelloAck) {
    state.SkipWithError("slot claim failed");
    return;
  }
  ipc::FramedSocket& sock = link.socket();

  const ipc::Frame f = sample_frame(0);
  std::uint64_t sent = 0;
  for (auto _ : state) {
    sock.send(f);
    ++sent;
    while (awareness_hub.events_ingested() < sent) awareness_hub.poll(100);
  }
  sock.close();
  awareness_hub.stop();
}
BENCHMARK(BM_HubIngestOneFrame);

}  // namespace

TRADER_BENCH_MAIN(report)
