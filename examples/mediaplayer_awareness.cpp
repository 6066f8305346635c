// Media-player awareness (§5, the MPlayer follow-up; experiment E12).
//
// Plays a clip, seeks around (legitimate buffering, suppressed via
// IEnableCompare), then injects a decoder overrun and a demuxer stall,
// showing the correctness and performance issues being caught.
//
//   build/examples/mediaplayer_awareness
#include <cstdio>
#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "faults/injector.hpp"
#include "mediaplayer/player.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"

namespace rt = trader::runtime;
namespace mp = trader::mediaplayer;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;
namespace sm = trader::statemachine;

int main() {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(8)};
  mp::MediaPlayer player(sched, bus, injector);

  auto monitor =
      core::MonitorBuilder(sched, bus)
          .model(mp::build_player_spec_model())
          .input_topic("mp.input")
          .output_topic("mp.output")
          .input_mapper([](const rt::Event& ev) -> std::optional<sm::SmEvent> {
            const std::string cmd = ev.str_field("cmd");
            if (cmd.empty()) return std::nullopt;
            return sm::SmEvent::named(cmd);
          })
          .threshold("state", 0.0, /*max_consecutive=*/4)
          .comparison_period(rt::msec(25))
          .on_error([&](const core::ErrorReport& err) {
            std::printf("           >>> correctness error: %s\n", err.describe().c_str());
          })
          .build();

  det::DetectionLog log;
  det::RangeChecker ranges(player.probes());
  sched.schedule_every(rt::msec(100), [&] {
    const std::size_t before = log.all().size();
    ranges.poll(log);
    if (log.all().size() > before) {
      const auto& d = log.all().back();
      std::printf("           >>> performance issue: probe '%s' %s\n", d.subject.c_str(),
                  d.message.c_str());
    }
  });

  player.start();
  monitor->start();

  auto status = [&](const char* note) {
    std::printf("[%7.1f ms] state=%-9s pos=%6.1fs av_offset=%7.1f ms  %s\n",
                rt::to_ms(sched.now()), mp::to_string(player.state()),
                player.position_seconds(), player.av_offset_ms(), note);
  };

  std::printf("--- normal playback with seeking ---------------------------------\n");
  player.play();
  sched.run_for(rt::sec(2));
  status("playing");
  player.seek(300.0);
  sched.run_for(rt::sec(2));
  status("after seek (buffering was legitimate: model suppressed comparison)");
  player.pause();
  sched.run_for(rt::sec(1));
  status("paused");
  player.play();
  sched.run_for(rt::sec(1));

  std::printf("--- performance fault: video decoder overrun ----------------------\n");
  injector.schedule(flt::FaultSpec{flt::FaultKind::kTaskOverrun, "vdec", sched.now(),
                                   rt::sec(2), 1.0, {}});
  sched.run_for(rt::sec(3));
  status("after decoder overrun window");

  std::printf("--- correctness fault: demuxer wedges -----------------------------\n");
  injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "demuxer", sched.now(), 0,
                                   1.0, {}});
  sched.run_for(rt::sec(2));
  status("spontaneous buffering (not user-initiated)");

  std::printf("--- summary --------------------------------------------------------\n");
  std::printf("correctness errors (spec model) : %zu\n", monitor->errors().size());
  std::printf("performance issues (probes)     : %zu\n", log.all().size());
  std::printf("frames rendered/dropped         : %llu / %llu\n",
              static_cast<unsigned long long>(player.frames_rendered()),
              static_cast<unsigned long long>(player.frames_dropped()));
  return (!monitor->errors().empty() && !log.all().empty()) ? 0 : 1;
}
