// E14 (§5): transferring the awareness concept to the printer/copier
// domain (Océ / the Octopus project).
//
// "In parallel, the model-based run-time awareness concept is also
// exploited in the domain of printer/copiers at the company Océ…"
// The same framework pieces — event-driven spec model, range probes,
// timeliness rules — are wired to the printer simulator without any
// framework change; the detection matrix below is the transfer evidence.
#include "bench_common.hpp"

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "detection/response_time.hpp"
#include "faults/injector.hpp"
#include "printer/printer.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/machine.hpp"

namespace pr = trader::printer;
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

core::MonitorBuilder printer_monitor() {
  core::MonitorBuilder builder;
  builder.model(pr::build_printer_spec_model())
      .input_topic("pr.input")
      .output_topic("pr.output")
      .input_mapper([](const rt::Event& ev) -> std::optional<sm::SmEvent> {
        const std::string cmd = ev.str_field("cmd");
        if (cmd.empty()) return std::nullopt;
        sm::SmEvent sm_ev = sm::SmEvent::named(cmd);
        sm_ev.params = ev.fields;
        return sm_ev;
      })
      .threshold("state", 0.0, /*max_consecutive=*/4)
      .comparison_period(rt::msec(50))
      .startup_grace(rt::msec(100));
  return builder;
}

struct CaseResult {
  bool comparator = false;
  bool timeliness = false;
  bool range = false;
  bool engine_error = false;  ///< The engine's own sensors raised it.
  rt::SimTime first_detection = -1;
};

CaseResult run_case(const std::string& fault) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(4)};
  pr::PrinterSystem printer(sched, bus, injector);
  auto monitor = printer_monitor().build(sched, bus);
  det::DetectionLog log;
  det::ResponseTimeMonitor response(sched, bus, log);
  for (auto& rule : pr::printer_response_rules()) response.add_rule(rule);
  det::RangeChecker ranges(printer.probes());

  printer.start();
  monitor->start();
  response.start();
  printer.submit_job(40);
  sched.run_for(rt::sec(6));  // warmed up and printing

  const rt::SimTime manifest = sched.now();
  if (fault == "feeder stall (silent)") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "feeder", manifest, 0,
                                     1.0, {}});
  } else if (fault == "paper jam") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "feeder", manifest, 0, 1.0, {}});
  } else if (fault == "fuser setpoint corruption") {
    injector.schedule(flt::FaultSpec{flt::FaultKind::kMemoryCorruption, "fuser", manifest, 0,
                                     1.0, {}});
  } else if (fault == "lost pause actuation") {
    rt::Event ev;
    ev.topic = "pr.input";
    ev.name = "command";
    ev.fields["cmd"] = std::string("pause");
    ev.timestamp = sched.now();
    bus.publish(ev);
  }
  sched.run_for(rt::sec(5));
  ranges.poll(log);

  CaseResult result;
  result.engine_error = printer.state() == pr::PrinterState::kError;
  result.comparator = !monitor->errors().empty();
  result.timeliness = log.count("timeliness") > 0;
  result.range = log.count("range") > 0;
  rt::SimTime first = -1;
  if (result.comparator) first = monitor->errors()[0].detected_at;
  for (const auto& d : log.all()) {
    if (first < 0 || d.at < first) first = d.at;
  }
  if (first >= 0) result.first_detection = first - manifest;
  return result;
}

void report() {
  banner("E14", "awareness transferred to the printer/copier domain (paper §5, Octopus)");

  Table t({"scenario", "comparator", "timeliness", "range probe", "engine sensors",
           "first detection ms"});
  for (const char* fault :
       {"none (clean job)", "feeder stall (silent)", "paper jam", "fuser setpoint corruption",
        "lost pause actuation"}) {
    const auto r = run_case(fault);
    const bool any = r.comparator || r.timeliness || r.range;
    t.row({fault, r.comparator ? "yes" : "-", r.timeliness ? "yes" : "-",
           r.range ? "yes" : "-", r.engine_error ? "yes" : "-",
           any && r.first_detection >= 0 ? fmt(rt::to_ms(r.first_detection), 0) : "-"});
  }
  t.print();
  std::printf("paper claim: the awareness concept carries over to printers unchanged --\n"
              "the same monitor classes detect the domain's silent stalls, jams, thermal\n"
              "faults and lost actuations. (A jam is detected by the engine itself; the\n"
              "monitor confirms the error state, so no comparator error is expected.)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_PrinterTick(benchmark::State& state) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector{rt::Rng(1)};
  pr::PrinterSystem printer(sched, bus, injector);
  printer.start();
  printer.submit_job(1000000);
  rt::SimTime t = 0;
  for (auto _ : state) {
    t += rt::msec(100);
    sched.run_until(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrinterTick);

// The printer spec model's dispatch on the compiled engine (a one-slot
// StateMachine).
void BM_PrinterSpecDispatch(benchmark::State& state) {
  auto def = pr::build_printer_spec_model();
  sm::StateMachine m(def);
  m.start(0);
  m.dispatch(sm::SmEvent::named("submit"), 0);
  m.dispatch(sm::SmEvent::named("engine_ready"), 1);
  rt::SimTime t = 1;
  for (auto _ : state) {
    m.dispatch(sm::SmEvent::named("page_printed"), ++t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrinterSpecDispatch);

}  // namespace

TRADER_BENCH_MAIN(report)
