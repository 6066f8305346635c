// Printer/copier awareness (§5, the Octopus follow-up; experiment E14).
//
// Runs a print shop afternoon: jobs queue up, the fuser warms, pages
// flow — then a silent feeder stall, a thermal fault and a lost pause
// actuation strike, each caught by a different monitor class.
//
//   build/examples/printer_awareness
#include <cstdio>
#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "detection/response_time.hpp"
#include "faults/injector.hpp"
#include "printer/printer.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"

namespace pr = trader::printer;
namespace rt = trader::runtime;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;
namespace sm = trader::statemachine;

int main() {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(12)};
  pr::PrinterSystem printer(sched, bus, injector);

  // Spec-model monitor over commands + page milestones.
  auto monitor =
      core::MonitorBuilder(sched, bus)
          .model(pr::build_printer_spec_model())
          .input_topic("pr.input")
          .output_topic("pr.output")
          .input_mapper([](const rt::Event& ev) -> std::optional<sm::SmEvent> {
            const std::string cmd = ev.str_field("cmd");
            if (cmd.empty()) return std::nullopt;
            return sm::SmEvent::named(cmd);
          })
          .threshold("state", 0.0, /*max_consecutive=*/4)
          .comparison_period(rt::msec(50))
          .on_error([&](const core::ErrorReport& err) {
            std::printf("           >>> spec-model error: %s\n", err.describe().c_str());
          })
          .build();

  // Timeliness + range detectors.
  det::DetectionLog log;
  det::ResponseTimeMonitor cadence(sched, bus, log);
  for (auto& rule : pr::printer_response_rules()) cadence.add_rule(rule);
  det::RangeChecker ranges(printer.probes());
  sched.schedule_every(rt::msec(200), [&] {
    const std::size_t before = log.all().size();
    ranges.poll(log);
    for (std::size_t i = before; i < log.all().size(); ++i) {
      std::printf("           >>> %s: %s (%s)\n", log.all()[i].detector.c_str(),
                  log.all()[i].subject.c_str(), log.all()[i].message.c_str());
    }
  });
  bus.subscribe("pr.output", [&](const rt::Event& ev) {
    if (ev.name == "state") {
      std::printf("[%8.1f ms] printer state -> %s\n", rt::to_ms(sched.now()),
                  ev.str_field("value").c_str());
    }
  });

  printer.start();
  monitor->start();
  cadence.start();

  std::printf("--- submitting jobs ------------------------------------------------\n");
  printer.submit_job(8);
  printer.submit_job(5);
  sched.run_for(rt::sec(12));
  std::printf("pages so far: %llu, paper left: %d\n",
              static_cast<unsigned long long>(printer.pages_printed_total()),
              printer.paper_level());

  std::printf("--- fault 1: silent feeder stall (engine notices nothing) ----------\n");
  printer.submit_job(30);
  sched.run_for(rt::sec(6));
  injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "feeder", sched.now(),
                                   rt::sec(3), 1.0, {}});
  sched.run_for(rt::sec(5));

  std::printf("--- fault 2: fuser setpoint corruption ------------------------------\n");
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMemoryCorruption, "fuser", sched.now(),
                                   rt::sec(2), 1.0, {}});
  sched.run_for(rt::sec(4));

  std::printf("--- fault 3: pause actuation lost -----------------------------------\n");
  {
    rt::Event ev;  // the operator's pause never reaches the engine
    ev.topic = "pr.input";
    ev.name = "command";
    ev.fields["cmd"] = std::string("pause");
    ev.timestamp = sched.now();
    bus.publish(ev);
  }
  sched.run_for(rt::sec(2));
  printer.pause();  // a real pause clears the divergence
  printer.resume();
  sched.run_for(rt::sec(20));

  std::printf("--- summary ----------------------------------------------------------\n");
  std::printf("spec-model errors : %zu\n", monitor->errors().size());
  std::printf("timeliness issues : %zu\n", log.count("timeliness"));
  std::printf("range violations  : %zu\n", log.count("range"));
  std::printf("pages printed     : %llu\n",
              static_cast<unsigned long long>(printer.pages_printed_total()));
  return (!monitor->errors().empty() && log.count("timeliness") > 0 && log.count("range") > 0)
             ? 0
             : 1;
}
