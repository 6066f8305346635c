// ipc_monitor: an awareness monitor watching a remote SUO process.
//
// The counterpart of suo_host: connects over AF_UNIX, republishes the
// remote TV's input/output events onto a local bus, and runs an
// unmodified MonitorBuilder-built awareness monitor against them — the
// spec model wrapped in a LinkGatedModel so comparison quiesces if the
// host dies. Drives a short remote-control session, injects a fault
// into the *remote* process, and shows the detection arriving back over
// the wire.
//
//   build/examples/suo_host /tmp/trader_suo.sock &
//   build/examples/ipc_monitor /tmp/trader_suo.sock
#include <cstdio>
#include <memory>
#include <string>

#include "core/monitor_builder.hpp"
#include "ipc/link_gate.hpp"
#include "ipc/remote_suo.hpp"
#include "ipc/transport.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/metrics.hpp"
#include "runtime/scheduler.hpp"
#include "tv/spec_model.hpp"

namespace rt = trader::runtime;
namespace ipc = trader::ipc;
namespace core = trader::core;
namespace tv = trader::tv;
namespace flt = trader::faults;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/trader_suo.sock";
  const bool keep_host = argc > 2 && std::string(argv[2]) == "--keep-host";

  rt::Scheduler sched;
  rt::EventBus bus;
  rt::MetricsRegistry metrics;

  ipc::RemoteSuoClient client(
      sched, bus, [&path]() { return ipc::connect_unix_retry(path, 3000); });
  client.set_metrics(&metrics);

  int errors = 0;
  core::MonitorBuilder builder(sched, bus);
  builder
      .model(tv::build_tv_spec_model())
      .wrap_model(ipc::link_gated(client.gate()))
      .comparison_period(rt::msec(20))
      .startup_grace(rt::msec(100))
      .on_error([&](const core::ErrorReport& err) {
        ++errors;
        std::printf(">>> comparator error on '%s' at %.1f ms (expected %s, observed %s)\n",
                    err.observable.c_str(), rt::to_ms(err.detected_at),
                    rt::to_string(err.expected).c_str(), rt::to_string(err.observed).c_str());
      });
  for (const char* name : {"sound_level", "screen_state", "channel", "powered"}) {
    builder.threshold(name, 0.0, 3);
  }
  auto monitor = builder.build();

  client.initialize();
  if (!client.link_up()) {
    std::printf("ipc_monitor: no suo_host on %s (start one first)\n", path.c_str());
    return 1;
  }
  std::printf("ipc_monitor: connected to %s (protocol v%u)\n", path.c_str(),
              client.negotiated_version());
  client.start(sched.now());
  monitor->start();

  std::printf("--- remote session: power on, volume up x2, channel 12 ---\n");
  client.press(tv::Key::kPower);
  client.advance_to(rt::msec(400));
  client.press(tv::Key::kVolumeUp);
  client.press(tv::Key::kVolumeUp);
  client.advance_to(rt::msec(800));
  client.heartbeat();
  std::printf("clean session: %d comparator error(s)\n", errors);

  std::printf("--- injecting kMessageLoss on cmd.audio inside the remote SUO ---\n");
  flt::FaultSpec loss;
  loss.kind = flt::FaultKind::kMessageLoss;
  loss.target = "cmd.audio";
  loss.activate_at = rt::msec(800);
  loss.duration = rt::msec(100);
  client.inject(loss);
  client.press(tv::Key::kVolumeUp);  // this one is lost inside the SUO
  client.advance_to(rt::msec(1600));
  std::printf("after fault: %d comparator error(s) — detected across the process boundary\n",
              errors);

  const auto snap = metrics.snapshot();
  std::printf("--- wire: %llu frames out, %llu frames in, %llu bytes in, rtt samples %llu\n",
              static_cast<unsigned long long>(snap.counter("ipc.frames_sent")),
              static_cast<unsigned long long>(snap.counter("ipc.frames_received")),
              static_cast<unsigned long long>(snap.counter("ipc.bytes_received")),
              static_cast<unsigned long long>(
                  snap.histograms.count("ipc.rtt_ns") ? snap.histograms.at("ipc.rtt_ns").count
                                                      : 0));

  if (keep_host) {
    std::printf("ipc_monitor: leaving suo_host running (--keep-host)\n");
  } else {
    client.shutdown_remote();
    std::printf("ipc_monitor: sent shutdown to suo_host\n");
  }
  return errors > 0 ? 0 : 1;  // the fault must have been detected
}
