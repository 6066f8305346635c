// Tests for the printer/copier SUO (§5, Octopus): engine behaviour, the
// event-driven spec model, awareness integration, and the timeliness
// rules that catch silent stalls.
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor_builder.hpp"
#include "detection/detectors.hpp"
#include "detection/response_time.hpp"
#include "faults/injector.hpp"
#include "printer/printer.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/checker.hpp"
#include "statemachine/test_script.hpp"

namespace pr = trader::printer;
namespace rt = trader::runtime;
namespace core = trader::core;
namespace det = trader::detection;
namespace flt = trader::faults;
namespace sm = trader::statemachine;

namespace {

struct PrinterFixture {
  PrinterFixture() : injector(rt::Rng(4)), printer(sched, bus, injector) { printer.start(); }

  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector;
  pr::PrinterSystem printer;
};

}  // namespace

TEST(Printer, StartsIdleAndCold) {
  PrinterFixture f;
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  f.sched.run_for(rt::sec(2));
  EXPECT_NEAR(f.printer.temperature(), 60.0, 1.0);
  EXPECT_EQ(f.printer.pages_printed_total(), 0u);
}

TEST(Printer, JobWarmsUpPrintsAndFinishes) {
  PrinterFixture f;
  f.printer.submit_job(10);
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kWarming);
  f.sched.run_for(rt::sec(4));  // warmup: (180-60)/4 °C per 100 ms = 3 s
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kPrinting);
  EXPECT_GE(f.printer.temperature(), 179.0);
  f.sched.run_for(rt::sec(6));  // 10 pages at 0.5 s/page
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  EXPECT_EQ(f.printer.pages_printed_total(), 10u);
  EXPECT_EQ(f.printer.paper_level(), 90);
}

TEST(Printer, QueuedJobsRunBackToBack) {
  PrinterFixture f;
  f.printer.submit_job(4);
  f.printer.submit_job(6);
  EXPECT_EQ(f.printer.queue_length(), 2);
  f.sched.run_for(rt::sec(12));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  EXPECT_EQ(f.printer.pages_printed_total(), 10u);
}

TEST(Printer, PauseHoldsProgressResumeContinues) {
  PrinterFixture f;
  f.printer.submit_job(20);
  f.sched.run_for(rt::sec(5));
  ASSERT_EQ(f.printer.state(), pr::PrinterState::kPrinting);
  const auto printed = f.printer.pages_printed_total();
  f.printer.pause();
  f.sched.run_for(rt::sec(3));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kPaused);
  EXPECT_EQ(f.printer.pages_printed_total(), printed);
  f.printer.resume();
  f.sched.run_for(rt::sec(2));
  EXPECT_GT(f.printer.pages_printed_total(), printed);
}

TEST(Printer, CancelClearsQueue) {
  PrinterFixture f;
  f.printer.submit_job(50);
  f.sched.run_for(rt::sec(5));
  f.printer.cancel();
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  EXPECT_EQ(f.printer.queue_length(), 0);
}

TEST(Printer, RunsOutOfPaperAndRecoversAfterService) {
  PrinterFixture f;  // 100 sheets loaded
  f.printer.submit_job(150);
  f.sched.run_for(rt::sec(60));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kError);
  EXPECT_EQ(f.printer.error_reason(), "out_of_paper");
  EXPECT_EQ(f.printer.paper_level(), 0);
  f.printer.load_paper(200);
  f.printer.clear_error();
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  f.printer.submit_job(5);
  f.sched.run_for(rt::sec(7));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kIdle);
  EXPECT_EQ(f.printer.pages_printed_total(), 105u);
}

TEST(Printer, JamRaisesError) {
  PrinterFixture f;
  f.printer.submit_job(30);
  f.sched.run_for(rt::sec(5));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kCrash, "feeder", f.sched.now(), 0, 1.0,
                                     {}});
  f.sched.run_for(rt::sec(1));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kError);
  EXPECT_EQ(f.printer.error_reason(), "paper_jam");
}

TEST(Printer, OverheatCaughtByRangeProbe) {
  PrinterFixture f;
  f.printer.submit_job(40);
  f.sched.run_for(rt::sec(5));
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kMemoryCorruption, "fuser", f.sched.now(),
                                     0, 1.0, {}});
  f.sched.run_for(rt::sec(5));
  det::DetectionLog log;
  det::RangeChecker checker(f.printer.probes());
  checker.poll(log);
  EXPECT_GE(log.count("range"), 1u);
  EXPECT_GT(f.printer.temperature(), 195.0);
}

// ----------------------------------------------------------------- spec model

TEST(PrinterSpec, PassesStaticChecks) {
  auto def = pr::build_printer_spec_model();
  sm::ModelChecker checker;
  const auto report = checker.check(def);
  for (const auto& issue : report.issues) {
    ADD_FAILURE() << sm::to_string(issue.kind) << " " << issue.subject << ": " << issue.message;
  }
}

TEST(PrinterSpec, JobLifecycleScript) {
  auto def = pr::build_printer_spec_model();
  sm::TestScript script("lifecycle");
  script.expect_state("Idle")
      .inject("submit")
      .expect_state("Warming")
      .inject("engine_ready")
      .expect_state("Printing")
      .inject("page_printed")
      .expect_state("Printing")
      .inject("job_done")
      .expect_state("Idle");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(PrinterSpec, QueuedJobContinuesPrinting) {
  auto def = pr::build_printer_spec_model();
  sm::TestScript script("queue");
  script.inject("submit")
      .inject("submit")  // second job queued
      .inject("engine_ready")
      .inject("job_done")  // first done, one remains
      .expect_state("Printing")
      .inject("job_done")
      .expect_state("Idle");
  EXPECT_TRUE(script.run(def).passed());
}

TEST(PrinterSpec, ErrorPathsScript) {
  auto def = pr::build_printer_spec_model();
  sm::TestScript script("errors");
  script.inject("submit")
      .inject("engine_ready")
      .inject("jam")
      .expect_state("Error")
      .inject("clear_error")
      .expect_state("Idle")
      .inject("submit")
      .inject("engine_ready")
      .inject("paper_out")
      .expect_state("Error");
  EXPECT_TRUE(script.run(def).passed());
}

// --------------------------------------------------------- awareness monitor

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

}  // namespace

TEST(PrinterMonitor, CleanJobsProduceNoErrors) {
  PrinterFixture f;
  auto monitor = printer_monitor().build(f.sched, f.bus);
  monitor->start();
  f.printer.submit_job(6);
  f.sched.run_for(rt::sec(10));
  f.printer.submit_job(4);
  f.sched.run_for(rt::sec(4));
  f.printer.pause();
  f.sched.run_for(rt::sec(1));
  f.printer.resume();
  f.sched.run_for(rt::sec(5));
  EXPECT_TRUE(monitor->errors().empty())
      << (monitor->errors().empty() ? "" : monitor->errors()[0].describe());
  EXPECT_EQ(f.printer.pages_printed_total(), 10u);
}

TEST(PrinterMonitor, LostPauseActuationDetected) {
  // The operator presses pause but the engine keeps printing (actuation
  // lost): the model expects "paused" while the printer reports
  // "printing" — caught by the comparator.
  PrinterFixture f;
  auto monitor = printer_monitor().build(f.sched, f.bus);
  monitor->start();
  f.printer.submit_job(40);
  f.sched.run_for(rt::sec(5));
  ASSERT_EQ(f.printer.state(), pr::PrinterState::kPrinting);
  // Simulate the lost actuation: publish the pause *command* without the
  // engine acting on it (the command path is the fault).
  rt::Event ev;
  ev.topic = "pr.input";
  ev.name = "command";
  ev.fields["cmd"] = std::string("pause");
  ev.timestamp = f.sched.now();
  f.bus.publish(ev);
  f.sched.run_for(rt::sec(2));
  ASSERT_FALSE(monitor->errors().empty());
  EXPECT_EQ(monitor->errors()[0].observable, "state");
  EXPECT_EQ(rt::to_string(monitor->errors()[0].expected), "paused");
}

TEST(PrinterTimeliness, SilentFeederStallCaughtByPageCadence) {
  PrinterFixture f;
  det::DetectionLog log;
  det::ResponseTimeMonitor response(f.sched, f.bus, log);
  for (auto& rule : pr::printer_response_rules()) response.add_rule(rule);
  response.start();
  f.printer.submit_job(40);
  f.sched.run_for(rt::sec(6));
  ASSERT_EQ(f.printer.state(), pr::PrinterState::kPrinting);
  // The silent failure: feeder stops, no error is raised by the engine.
  f.injector.schedule(flt::FaultSpec{flt::FaultKind::kStuckComponent, "feeder", f.sched.now(),
                                     0, 1.0, {}});
  f.sched.run_for(rt::sec(3));
  EXPECT_EQ(f.printer.state(), pr::PrinterState::kPrinting);  // still "printing"!
  EXPECT_GE(log.count("timeliness"), 1u);                      // but caught
  EXPECT_EQ(log.all()[0].subject, "page-cadence");
}

TEST(PrinterTimeliness, CleanJobsKeepCadence) {
  PrinterFixture f;
  det::DetectionLog log;
  det::ResponseTimeMonitor response(f.sched, f.bus, log);
  for (auto& rule : pr::printer_response_rules()) response.add_rule(rule);
  response.start();
  f.printer.submit_job(8);
  f.sched.run_for(rt::sec(12));
  f.printer.submit_job(3);
  f.sched.run_for(rt::sec(8));
  EXPECT_EQ(log.count("timeliness"), 0u);
}
