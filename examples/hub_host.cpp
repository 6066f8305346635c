// hub_host: one awareness hub monitoring a fleet of SUO processes.
//
// Forks N child processes, each hosting its own simulated TV and
// pushing tv.input / tv.output events into the hub's AF_UNIX listener
// (src/hub/agent.hpp). The parent runs the epoll event loop: every
// child claims a named slot, gets an awareness monitor in the sharded
// fleet (topics namespaced "<slot>/tv.*"), and is liveness-probed on
// the fixed-rate timer wheel. Kill -9 a child mid-run to watch the
// supervision path: one outage report, gated comparison while down,
// backoff-guarded reconnect window.
//
//   build/examples/hub_host --fleet 4
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "tv/spec_model.hpp"

namespace {

std::string slot_name(int i) { return "suo" + std::to_string(i); }

}  // namespace

int main(int argc, char** argv) {
  int fleet = 4;
  long horizon_ms = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fleet" && i + 1 < argc) {
      fleet = std::atoi(argv[++i]);
    } else if (arg == "--horizon-ms" && i + 1 < argc) {
      horizon_ms = std::atol(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: hub_host [--fleet N] [--horizon-ms MS]\n"
                  "  --fleet N       SUO child processes to fork (default 4)\n"
                  "  --horizon-ms MS virtual horizon per SUO (default 2000)\n");
      return 0;
    }
  }
  if (fleet < 1) fleet = 1;

  using namespace trader;

  hub::HubConfig config;
  config.shards = fleet > 4 ? 4 : static_cast<std::size_t>(fleet);
  config.namespace_topics = true;  // every SUO publishes "tv.*"
  config.auto_advance = true;      // fleet time follows the stream watermark
  config.heartbeat_interval_ms = 20;
  hub::AwarenessHub hub(config);

  // One slot + one spec-model monitor per SUO. The monitor's topics are
  // rewritten to the slot's namespace so eight TVs coexist in one fleet.
  for (int i = 0; i < fleet; ++i) {
    const std::string slot = slot_name(i);
    core::MonitorBuilder builder;
    builder.model(tv::build_tv_spec_model())
        .link_gate(hub.add_slot(slot))  // quiesce comparison while the SUO is down
        .input_topic(slot + "/tv.input")
        .output_topic(slot + "/tv.output")
        .comparison_period(runtime::msec(50))
        .startup_grace(runtime::msec(100));
    for (const char* obs : {"sound_level", "screen_state", "channel", "powered"}) {
      builder.threshold(obs, 0.0, 3);
    }
    hub.add_monitor(slot, slot, std::move(builder));
  }

  if (!hub.start()) {
    std::fprintf(stderr, "hub_host: cannot listen on %s\n", hub.path().c_str());
    return 1;
  }
  std::printf("hub_host: listening on %s, forking %d SUOs (pid %d)\n", hub.path().c_str(),
              fleet, ::getpid());

  std::vector<pid_t> children;
  for (int i = 0; i < fleet; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      hub::PublisherConfig pub;
      pub.hub_path = hub.path();
      pub.name = slot_name(i);
      pub.seed = 1000 + static_cast<std::uint64_t>(i);
      pub.horizon = runtime::msec(horizon_ms);
      pub.pace_us = 500;  // stream ~2x wall speed so probes interleave
      ::_exit(hub::run_hub_publisher(pub));
    }
    if (pid > 0) children.push_back(pid);
  }

  // Drive the loop until every child exited and its link drained.
  int live = static_cast<int>(children.size());
  while (live > 0 || hub.connection_count() > 0) {
    hub.poll(50);
    int status = 0;
    while (live > 0 && ::waitpid(-1, &status, WNOHANG) > 0) --live;
  }
  hub.poll(0);  // final drain

  const auto snap = hub.metrics();
  std::printf("hub_host: ingested %llu events over %llu loop iterations\n",
              static_cast<unsigned long long>(hub.events_ingested()),
              static_cast<unsigned long long>(hub.loop().iterations()));
  std::printf("hub_host: accepted=%llu evicted=%llu outages=%llu probes=%llu\n",
              static_cast<unsigned long long>(snap.counter("hub.accepted")),
              static_cast<unsigned long long>(snap.counter("hub.evicted")),
              static_cast<unsigned long long>(snap.counter("hub.outages")),
              static_cast<unsigned long long>(snap.counter("hub.probes")));
  for (int i = 0; i < fleet; ++i) {
    const std::string slot = slot_name(i);
    const auto* sup = hub.slot_supervisor(slot);
    std::printf("hub_host: %-6s errors=%zu outages=%llu\n", slot.c_str(),
                hub.fleet().error_count(slot),
                static_cast<unsigned long long>(sup != nullptr ? sup->outages() : 0));
  }
  hub.stop();
  return 0;
}
