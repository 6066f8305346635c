// E12 (§5): awareness experiments with the media player.
//
// Paper: "the framework is used for awareness experiments with the open
// source media player MPlayer, investigating both correctness and
// performance issues."
//
// Correctness: the transport spec model catches unexpected state changes
// (spontaneous buffering). Performance: A/V-sync drift and queue
// anomalies surface as range-probe violations.
#include "bench_common.hpp"

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "mediaplayer/player.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"

namespace mp = trader::mediaplayer;
namespace rt = trader::runtime;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;
namespace sm = trader::statemachine;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

core::MonitorBuilder player_monitor() {
  core::MonitorBuilder builder;
  builder.model(mp::build_player_spec_model())
      .input_topic("mp.input")
      .output_topic("mp.output")
      .input_mapper([](const rt::Event& ev) -> std::optional<sm::SmEvent> {
        const std::string cmd = ev.str_field("cmd");
        if (cmd.empty()) return std::nullopt;
        return sm::SmEvent::named(cmd);
      })
      .threshold("state", 0.0, /*max_consecutive=*/4)
      .comparison_period(rt::msec(25))
      .startup_grace(rt::msec(50))
      .channel_latency(rt::usec(300));
  return builder;
}

struct CaseResult {
  bool state_error = false;
  rt::SimTime state_latency = -1;
  std::size_t range_violations = 0;
  double final_av_offset = 0.0;
};

CaseResult run_case(const std::string& fault) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(13)};
  mp::MediaPlayer player(sched, bus, injector);
  auto monitor = player_monitor().build(sched, bus);
  player.start();
  monitor->start();
  player.play();
  sched.run_for(rt::sec(3));

  det::DetectionLog log;
  det::RangeChecker ranges(player.probes());
  ranges.poll(log);  // drain any boot noise
  const std::size_t baseline = log.all().size();

  rt::SimTime manifest = sched.now();
  if (fault == "vdec overrun") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kTaskOverrun, "vdec", sched.now(), 0, 1.0,
                                     {}});
  } else if (fault == "adec crash") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "adec", sched.now(), 0, 1.0, {}});
  } else if (fault == "demuxer stall") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "demuxer", sched.now(), 0,
                                     1.0, {}});
  } else if (fault == "none (seek storm)") {
    for (int i = 0; i < 5; ++i) {
      player.seek(30.0 * (i + 1));
      sched.run_for(rt::msec(900));
    }
  }
  sched.run_for(rt::sec(4));
  ranges.poll(log);

  CaseResult result;
  if (!monitor->errors().empty()) {
    result.state_error = true;
    result.state_latency = monitor->errors().front().detected_at - manifest;
  }
  result.range_violations = log.all().size() - baseline;
  result.final_av_offset = player.av_offset_ms();
  return result;
}

void report() {
  banner("E12", "media-player awareness: correctness and performance (paper §5, MPlayer)");

  Table t({"scenario", "state error (spec model)", "latency ms", "range violations (probes)",
           "A/V offset ms"});
  for (const char* fault : {"none (clean playback)", "none (seek storm)", "vdec overrun",
                            "adec crash", "demuxer stall"}) {
    const auto r = run_case(fault);
    t.row({fault, r.state_error ? "yes" : "no",
           r.state_latency >= 0 ? fmt(rt::to_ms(r.state_latency), 1) : "-",
           fmt_int(static_cast<std::int64_t>(r.range_violations)), fmt(r.final_av_offset, 1)});
  }
  t.print();
  std::printf("paper claim: the same framework catches correctness issues (unexpected\n"
              "transport state, via the spec model + IEnableCompare around seeks) and\n"
              "performance issues (A/V drift, via range probes) on a media player.\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_PlayerTick(benchmark::State& state) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(1)};
  mp::MediaPlayer player(sched, bus, injector);
  player.start();
  player.play();
  rt::SimTime t = 0;
  for (auto _ : state) {
    t += rt::msec(40);
    sched.run_until(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlayerTick);

void BM_PlayerSeek(benchmark::State& state) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(1)};
  mp::MediaPlayer player(sched, bus, injector);
  player.start();
  player.play();
  double pos = 0.0;
  for (auto _ : state) {
    pos += 1.0;
    player.seek(pos);
    sched.run_for(rt::msec(200));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlayerSeek);

}  // namespace

TRADER_BENCH_MAIN(report)
