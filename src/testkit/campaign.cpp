#include "testkit/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>

#include "core/model_program.hpp"
#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "faults/injector.hpp"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "statemachine/definition.hpp"

namespace trader::testkit {

namespace {

namespace sm = trader::statemachine;

// The scripted SUO's spec model: one aspect is a counter that expects
// an increment per "inc" command and emits the expected "count".
sm::StateMachineDef counter_model() {
  sm::StateMachineDef def("counter");
  const auto s = def.add_state("S");
  def.add_internal(s, "inc", nullptr, [](sm::ActionEnv& env) {
    env.vars.set_int("n", env.vars.get_int("n") + 1);
    env.emit("count", {{"value", env.vars.get_int("n")}});
  });
  return def;
}

core::MonitorBuilder counter_monitor(std::size_t k, const ExecutorConfig& config,
                                     const core::ModelProgramPtr& program,
                                     std::shared_ptr<const std::atomic<bool>> gate) {
  core::MonitorBuilder builder;
  builder.with_program(program);  // one table set across aspects AND scenarios
  // The link gate quiesces the Comparator while the SUO is unreachable
  // (the §4.3 graceful-degradation policy).
  builder.link_gate(std::move(gate));
  builder.input_topic("in." + std::to_string(k))
      .output_topic("out." + std::to_string(k))
      .threshold("count", 0.0, config.max_consecutive)
      .comparison_period(config.comparison_period)
      .startup_grace(config.startup_grace);
  return builder;
}

// Backend-neutral view of "an awareness runtime the driver feeds from
// outside". Both backends feed a ShardedFleet; they differ in whether
// the scripted SUO reaches it in process or over the hub's sockets.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual void add_monitor(const std::string& aspect, core::MonitorBuilder builder) = 0;
  virtual void start() = 0;
  virtual void stop() = 0;
  virtual void run_until(runtime::SimTime t) = 0;
  virtual void publish(const runtime::Event& ev) = 0;
  virtual std::vector<core::AspectError> errors() const = 0;
  virtual const core::ComparatorStats& stats(const std::string& aspect) = 0;
  virtual runtime::MetricsSnapshot metrics() const = 0;
  /// Comparison gate of one aspect's model: closed while its SUO link
  /// is down.
  virtual std::shared_ptr<const std::atomic<bool>> gate_for(const std::string& aspect) = 0;
  /// Tear down / re-establish the SUO link.
  virtual void set_link(bool up) = 0;
};

// The in-process backend carries a *virtual* SUO link: one gate shared
// by every aspect, which the hub backend keeps per slot and flips on a
// real socket teardown. set_link(false) drops every publish and
// quiesces comparators through their link gate, so a kill-restart
// scenario fingerprints identically whether the SUO is a struct in
// this process or a peer behind a kernel stream — which is what lets
// the fuzzer's outage mutations run on the fast backend and still
// replay differentially.
class ShardedBackend : public Backend {
 public:
  explicit ShardedBackend(const ExecutorConfig& config)
      : fleet_(core::ShardedFleetConfig{config.shards, config.epoch, config.seed}),
        gate_(std::make_shared<std::atomic<bool>>(true)) {}

  void add_monitor(const std::string& aspect, core::MonitorBuilder builder) override {
    fleet_.add_monitor(aspect, std::move(builder));
  }
  void start() override { fleet_.start(); }
  void stop() override { fleet_.stop(); }
  void run_until(runtime::SimTime t) override { fleet_.run_until(t); }
  void publish(const runtime::Event& ev) override {
    if (!gate_->load(std::memory_order_relaxed)) return;  // SUO unreachable
    fleet_.publish(ev);
  }
  std::vector<core::AspectError> errors() const override { return fleet_.errors(); }
  const core::ComparatorStats& stats(const std::string& aspect) override {
    return fleet_.monitor(aspect).stats();
  }
  runtime::MetricsSnapshot metrics() const override { return fleet_.metrics(); }
  std::shared_ptr<const std::atomic<bool>> gate_for(const std::string& aspect) override {
    (void)aspect;
    return gate_;
  }
  // The driver only flips the link between run_until epochs, so the
  // relaxed store is ordered against shard threads by the epoch barrier.
  void set_link(bool up) override { gate_->store(up, std::memory_order_relaxed); }

 private:
  core::ShardedFleet fleet_;
  std::shared_ptr<std::atomic<bool>> gate_;
};

// The hub backend runs the full fleet-over-sockets topology inside the
// campaign: every aspect gets its own AF_UNIX connection into one
// AwarenessHub epoll loop, which decodes frames and publishes them into
// its ShardedFleet. The driver stays synchronous — after each send it
// pumps the loop until the frame has been ingested — so publish-then-
// deliver ordering (and therefore every verdict and golden-trace
// fingerprint) matches the in-process backend exactly. This is the
// differential gate for the whole wire: encode, the kernel stream,
// epoll readiness, nonblocking decode, slot handshakes and per-slot
// gating all sit in the scored path.
class HubBackend : public Backend {
 public:
  explicit HubBackend(const ExecutorConfig& config) {
    hub::HubConfig hc;
    hc.shards = config.shards;
    hc.epoch = config.epoch;
    hc.seed = config.seed;
    hc.probe_liveness = false;  // the driver pumps; wall-clock probes would misfire
    hc.supervisor.backoff_initial_ms = 1;  // virtual-time campaign, no wall budget
    hub_ = std::make_unique<hub::AwarenessHub>(hc);
  }

  void add_monitor(const std::string& aspect, core::MonitorBuilder builder) override {
    aspects_.push_back(aspect);
    hub_->add_monitor(aspect, aspect, std::move(builder));
  }

  std::shared_ptr<const std::atomic<bool>> gate_for(const std::string& aspect) override {
    return hub_->add_slot(aspect);
  }

  void start() override {
    hub_->start();
    set_link(true);
  }

  void stop() override {
    for (auto& c : clients_) c.socket().close();
    drain_disconnects();
    hub_->stop();
  }

  void run_until(runtime::SimTime t) override { hub_->run_until(t); }

  void publish(const runtime::Event& ev) override {
    if (!link_up_) return;  // SUO process is down
    const auto dot = ev.topic.rfind('.');
    const std::size_t k = std::stoul(ev.topic.substr(dot + 1));
    if (k >= clients_.size()) return;
    ipc::Frame f;
    f.type = ev.topic.rfind("in.", 0) == 0 ? ipc::FrameType::kInputEvent
                                           : ipc::FrameType::kOutputEvent;
    f.seq = ++seq_;
    f.time = hub_->now();
    f.event = ev;
    if (!clients_[k].socket().send(f)) {
      set_link(false);
      return;
    }
    // Synchronous pump: run the loop until this frame has been decoded
    // and published into the fleet, preserving publish-then-deliver
    // ordering exactly as the in-process backend sees it.
    const std::uint64_t target = hub_->events_ingested() + 1;
    while (hub_->events_ingested() < target) {
      if (hub_->poll(2000) <= 0) {
        set_link(false);  // loop failure or 2s of silence: link is gone
        return;
      }
    }
  }

  std::vector<core::AspectError> errors() const override { return hub_->fleet().errors(); }
  const core::ComparatorStats& stats(const std::string& aspect) override {
    return hub_->fleet().monitor(aspect).stats();
  }
  runtime::MetricsSnapshot metrics() const override { return hub_->metrics(); }

  void set_link(bool up) override {
    if (up == link_up_) return;
    if (!up) {
      // Kill the whole SUO process: every connection drops at once. The
      // hub notices the EOFs, downs the slots and flips the gates.
      for (auto& c : clients_) c.socket().close();
      drain_disconnects();
      link_up_ = false;
      return;
    }
    clients_.clear();
    clients_.resize(aspects_.size());
    bool all_up = true;
    for (std::size_t k = 0; k < aspects_.size(); ++k) {
      all_up = clients_[k].claim(hub_->path(), aspects_[k], hub_.get()) ==
                   ipc::FrameType::kHelloAck &&
               all_up;
    }
    link_up_ = all_up;
  }

 private:
  /// Pump until the hub has processed every pending hangup.
  void drain_disconnects() {
    while (hub_->connection_count() > 0) {
      if (hub_->poll(2000) <= 0) break;
    }
  }

  std::unique_ptr<hub::AwarenessHub> hub_;
  std::vector<std::string> aspects_;
  std::vector<hub::SuoLink> clients_;  ///< Indexed like aspects_.
  bool link_up_ = false;
  std::uint32_t seq_ = 0;  ///< One frame counter across every link.
};

std::unique_ptr<Backend> make_backend(const ExecutorConfig& config) {
  if (config.ipc == IpcMode::kHub) return std::make_unique<HubBackend>(config);
  return std::make_unique<ShardedBackend>(config);
}

std::string fmt_value(std::int64_t v) { return std::to_string(v); }

}  // namespace

const char* to_string(IpcMode m) {
  switch (m) {
    case IpcMode::kOff:
      return "off";
    case IpcMode::kHub:
      return "hub";
  }
  return "?";
}

std::string backend_label(const ExecutorConfig& config) {
  std::string label =
      "sharded(" + std::to_string(std::max<std::size_t>(config.shards, 1)) + ")";
  if (config.ipc != IpcMode::kOff) label += std::string("+ipc-") + to_string(config.ipc);
  return label;
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kTrueNegative:
      return "true-negative";
    case Verdict::kDetected:
      return "detected";
    case Verdict::kMissed:
      return "missed";
    case Verdict::kFalsePositive:
      return "false-positive";
  }
  return "?";
}

Verdict classify_verdict(bool manifested, std::size_t errors_on_target,
                         std::size_t errors_off_target) {
  if (manifested) {
    return errors_on_target > 0 ? Verdict::kDetected : Verdict::kMissed;
  }
  return errors_on_target + errors_off_target > 0 ? Verdict::kFalsePositive
                                                  : Verdict::kTrueNegative;
}

// ------------------------------------------------------------ ScenarioExecutor

ScenarioExecutor::ScenarioExecutor(ExecutorConfig config) : config_(config) {
  if (config_.epoch <= 0) config_.epoch = runtime::msec(10);
  // Compile the scripted counter spec once; every aspect of every
  // scenario shares these tables (the executor-v2 sharing model).
  counter_program_ = core::compile_model(counter_model());
}

ScenarioResult ScenarioExecutor::run(const ScenarioScript& script) {
  using faults::FaultKind;

  ScenarioResult result;
  result.name = script.name();
  result.fault_planned = !script.fault_plan().empty();
  if (result.fault_planned) result.fault = script.fault_plan().front();

  // Per-scenario deterministic substrate: the injector RNG depends only
  // on the executor seed, never on the backend topology.
  faults::FaultInjector injector(runtime::Rng(config_.seed ^ 0xca3'9a1e));
  for (const auto& spec : script.fault_plan()) injector.schedule(spec);

  auto backend = make_backend(config_);
  const std::size_t aspects = script.aspect_count();
  for (std::size_t k = 0; k < aspects; ++k) {
    backend->add_monitor(aspect_name(k), counter_monitor(k, config_, counter_program_,
                                                         backend->gate_for(aspect_name(k))));
  }
  backend->start();

  struct AspectState {
    std::int64_t model_count = 0;
    std::int64_t system_count = 0;
    std::int64_t backlog = 0;  ///< Increments deferred by a resource eater.
    bool crashed = false;
  };
  std::vector<AspectState> states(aspects);
  bool gave_up = false;
  recovery::RecoveryEscalator escalator(config_.escalation);
  GoldenTrace& trace = result.trace;
  std::size_t errors_seen = 0;

  // Re-sync replays believed state into the component (§5) AND the
  // component reports its corrected observable: without that report the
  // comparator's deviating episode never closes, so a fault window
  // would yield exactly one error — and one repair — no matter how much
  // state it corrupted afterwards.
  auto resync = [&](std::size_t k) {
    states[k].system_count = states[k].model_count;
    states[k].backlog = 0;
    states[k].crashed = false;
    runtime::Event out;
    out.topic = "out." + std::to_string(k);
    out.name = "count";
    out.fields["value"] = states[k].system_count;
    backend->publish(out);
  };

  // Apply detections reported since the last poll: the driver sees the
  // deterministic merged error view only between run_until calls, so
  // recovery decisions are a function of the virtual timeline on every
  // backend.
  auto poll_recovery = [&](runtime::SimTime now) {
    const auto errs = backend->errors();
    for (std::size_t e = errors_seen; e < errs.size(); ++e) {
      const auto& ae = errs[e];
      trace.add(ae.report.detected_at, "error", ae.aspect + " " + ae.report.describe());
      if (gave_up) continue;
      const auto action = escalator.next_action(ae.aspect, now);
      result.actions.push_back(action);
      trace.add(now, "recover", ae.aspect + " " + recovery::to_string(action));
      const std::size_t k = static_cast<std::size_t>(
          std::stoul(ae.aspect.substr(std::string("aspect").size())));
      switch (action) {
        case recovery::RecoveryAction::kResync:
        case recovery::RecoveryAction::kRestartUnit:
          resync(k);
          break;
        case recovery::RecoveryAction::kRestartDependents:
        case recovery::RecoveryAction::kFullRestart:
          for (std::size_t a = 0; a < aspects; ++a) resync(a);
          break;
        case recovery::RecoveryAction::kGiveUp:
          gave_up = true;
          break;
      }
    }
    errors_seen = errs.size();
  };

  // One scripted command: the user presses "inc" on aspect k; the
  // scripted system applies it subject to whatever faults manifest.
  auto apply_command = [&](std::size_t k, runtime::SimTime now) {
    AspectState& st = states[k];
    const std::string target = aspect_name(k);
    const std::string idx = std::to_string(k);

    runtime::Event in;
    in.topic = "in." + idx;
    in.name = "key";
    in.fields["key"] = std::string("inc");
    backend->publish(in);
    ++st.model_count;  // the spec model will expect this increment

    if (!st.crashed && injector.fires(FaultKind::kCrash, target, now, "component crashed")) {
      st.crashed = true;
      st.system_count = 0;  // restart-from-scratch once repaired
      st.backlog = 0;       // the deferred queue dies with the component
    }
    if (st.crashed) {
      trace.add(now, "cmd", target + " inc dropped (dead)");
      return;
    }
    if (injector.fires(FaultKind::kStuckComponent, target, now, "command swallowed")) {
      trace.add(now, "cmd", target + " inc swallowed (stuck)");
      return;
    }
    // Resource eater (§4.7, TASS): a CPU/bus eater steals the cycles
    // this command needed, so the component queues it and keeps
    // reporting its stale state — the published count lags the model
    // until the eater releases the resource and the backlog drains.
    if (injector.fires(FaultKind::kResourceEater, target, now, "processing deferred (starved)")) {
      ++st.backlog;
      runtime::Event out;
      out.topic = "out." + idx;
      out.name = "count";
      out.fields["value"] = st.system_count;
      backend->publish(out);
      trace.add(now, "cmd", target + " inc deferred (eater) out=" + fmt_value(st.system_count));
      return;
    }
    if (st.backlog > 0) {  // resource back: drain the deferred queue first
      st.system_count += st.backlog;
      st.backlog = 0;
    }

    const bool lost = injector.fires(FaultKind::kMessageLoss, target, now, "increment lost");
    if (!lost) {
      ++st.system_count;
      if (injector.fires(FaultKind::kModeDesync, target, now, "silent extra increment")) {
        ++st.system_count;
      }
      if (injector.fires(FaultKind::kMemoryCorruption, target, now, "counter overwritten")) {
        st.system_count += 7;
      }
    }
    // Manifestations a counter comparator cannot observe (timing and
    // input-quality degradations) — ground truth records them, the
    // detector stays blind: the "missed" verdict arm.
    injector.fires(FaultKind::kTaskOverrun, target, now, "task overran");
    injector.fires(FaultKind::kBadSignal, target, now, "input degraded");

    std::int64_t published = st.system_count;
    if (injector.fires(FaultKind::kMessageCorruption, target, now,
                       "output corrupted in transit")) {
      published ^= 0x15;
    }
    runtime::Event out;
    out.topic = "out." + idx;
    out.name = "count";
    out.fields["value"] = published;
    backend->publish(out);
    trace.add(now, "cmd", target + " inc sys=" + fmt_value(st.system_count) +
                              " out=" + fmt_value(published));
  };

  // Kill-and-restart window: between suo_down and suo_up the SUO is
  // gone. Commands reach nobody — neither the model nor the scripted
  // system advances, so no divergence is manufactured — and the
  // comparators quiesce through the link gate: a real socket teardown
  // on the hub backend, the virtual link in process (same gate, same
  // trace, so outage scenarios replay differentially). The window is
  // the script's (ScenarioScript::outage). Each transition is traced
  // exactly once (the no-error-flood policy).
  const runtime::SimTime suo_down = script.suo_down();
  const runtime::SimTime suo_up = script.suo_up();
  const bool has_outage = script.has_outage();
  bool link_down = false;
  auto update_link = [&](runtime::SimTime t) {
    if (!has_outage) return;
    if (!link_down && t >= suo_down && t < suo_up) {
      backend->set_link(false);
      link_down = true;
      ++result.link_outages;
      trace.add(suo_down, "ipc", "link down (suo killed)");
    } else if (link_down && t >= suo_up) {
      backend->set_link(true);
      link_down = false;
      trace.add(suo_up, "ipc", "link up (suo restarted)");
    }
  };

  const auto commands = script.sorted_commands();
  std::size_t i = 0;
  while (i < commands.size()) {
    const runtime::SimTime t = commands[i].at;
    backend->run_until(t);
    update_link(t);
    poll_recovery(t);
    for (; i < commands.size() && commands[i].at == t; ++i) {
      if (link_down) {
        trace.add(t, "cmd", aspect_name(commands[i].aspect) + " inc unreachable (link down)");
      } else {
        apply_command(commands[i].aspect, t);
      }
    }
  }
  update_link(script.horizon());
  backend->run_until(script.horizon());
  backend->stop();

  // Tail errors (after the last command) enter the trace and the score
  // but trigger no recovery — the session is over.
  {
    const auto errs = backend->errors();
    for (std::size_t e = errors_seen; e < errs.size(); ++e) {
      trace.add(errs[e].report.detected_at, "error",
                errs[e].aspect + " " + errs[e].report.describe());
    }
  }

  // ------------------------------------------------- score the scenario
  // "On target" spans the union of planned fault targets: for a
  // single-fault script this is exactly the classic one-target scoring;
  // for the fuzzer's composed plans it keeps the verdict coherent (a
  // detected off-first-fault manifestation is a detection, not noise).
  std::set<std::string> targets;
  for (const auto& spec : script.fault_plan()) targets.insert(spec.target);
  result.fault_manifested = !injector.activations().empty();
  if (result.fault_manifested) {
    result.first_manifestation = injector.activations().front().time;
  }
  for (const auto& a : injector.activations()) {
    if (campaign_detectable(a.spec.kind)) result.detectable_manifested = true;
  }
  for (const auto& ae : backend->errors()) {
    if (targets.count(ae.aspect) != 0) {
      if (result.errors_on_target == 0) result.first_detection = ae.report.detected_at;
      ++result.errors_on_target;
    } else {
      ++result.errors_off_target;
    }
  }
  result.verdict =
      classify_verdict(result.fault_manifested, result.errors_on_target, result.errors_off_target);
  if (result.verdict == Verdict::kDetected) {
    runtime::SimTime first = -1;
    for (const auto& target : targets) {
      const runtime::SimTime t = injector.first_activation(target);
      if (t >= 0 && (first < 0 || t < first)) first = t;
    }
    result.detection_latency = result.first_detection - first;
    result.recovered = !gave_up;
    for (std::size_t k = 0; k < aspects; ++k) {
      if (targets.count(aspect_name(k)) == 0) continue;
      result.recovered = result.recovered &&
                         states[k].system_count == states[k].model_count && !states[k].crashed;
    }
  }
  result.gave_up = gave_up;

  // Deterministic end-of-run summary: per-aspect comparator stats plus
  // the deterministic counters of the merged metrics snapshot.
  for (std::size_t k = 0; k < aspects; ++k) {
    const auto& st = backend->stats(aspect_name(k));
    trace.add_line("stats " + aspect_name(k) + " comparisons=" + std::to_string(st.comparisons) +
                   " deviations=" + std::to_string(st.deviations) +
                   " errors=" + std::to_string(st.errors) +
                   " suppressed=" + std::to_string(st.suppressed) +
                   " skipped=" + std::to_string(st.skipped));
  }
  trace.capture_metrics(backend->metrics(), {"comparator.", "model."});
  trace.add_line(std::string("verdict ") + to_string(result.verdict) +
                 " latency=" + std::to_string(result.detection_latency) +
                 " recovered=" + (result.recovered ? "1" : "0"));
  return result;
}

// -------------------------------------------------------------- CampaignRunner

CampaignRunner::CampaignRunner(CampaignConfig config) : config_(std::move(config)) {}

CampaignReport CampaignRunner::run() {
  CampaignReport report;
  report.config = config_;

  runtime::Rng master(config_.seed);
  ScenarioExecutor executor(config_.executor);
  for (std::size_t i = 0; i < config_.scenarios; ++i) {
    runtime::Rng scenario_rng = master.fork();
    const ScenarioScript script = draw_scenario(scenario_rng, i, config_.draw);
    ScenarioResult result = executor.run(script);

    const std::string kind_key =
        result.fault_planned ? faults::to_string(result.fault.kind) : "none";
    KindStats& ks = report.by_kind[kind_key];
    ++ks.scenarios;
    switch (result.verdict) {
      case Verdict::kDetected:
        ++ks.detected;
        ks.latency_sum += result.detection_latency;
        if (result.recovered) ++ks.recovered;
        break;
      case Verdict::kMissed:
        ++ks.missed;
        break;
      case Verdict::kFalsePositive:
        ++ks.false_positive;
        break;
      case Verdict::kTrueNegative:
        ++ks.true_negative;
        break;
    }
    report.results.push_back(std::move(result));
  }
  return report;
}

// -------------------------------------------------------------- CampaignReport

std::size_t CampaignReport::count(Verdict v) const {
  std::size_t n = 0;
  for (const auto& r : results) {
    if (r.verdict == v) ++n;
  }
  return n;
}

double CampaignReport::detection_rate_detectable() const {
  std::size_t manifested = 0;
  std::size_t detected = 0;
  for (const auto& r : results) {
    if (!r.detectable_manifested) continue;
    ++manifested;
    if (r.verdict == Verdict::kDetected) ++detected;
  }
  return manifested == 0 ? 1.0 : static_cast<double>(detected) / static_cast<double>(manifested);
}

GoldenTrace CampaignReport::golden_trace() const {
  GoldenTrace combined;
  for (const auto& r : results) {
    for (const auto& line : r.trace.lines()) combined.add_line(r.name + "| " + line);
  }
  return combined;
}

namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

std::string CampaignReport::to_json() const {
  std::string out = "{\n";
  out += "  \"campaign\": {\n";
  out += "    \"seed\": " + std::to_string(config.seed) + ",\n";
  out += "    \"scenarios\": " + std::to_string(config.scenarios) + ",\n";
  out += "    \"aspects\": " + std::to_string(config.draw.aspects) + ",\n";
  out += "    \"backend\": \"" + backend_label(config.executor) + "\",\n";
  out += "    \"horizon_us\": " + std::to_string(config.draw.horizon) + ",\n";
  out += "    \"trace_fingerprint\": \"" + golden_trace().fingerprint() + "\"\n";
  out += "  },\n";

  out += "  \"totals\": {\n";
  out += "    \"detected\": " + std::to_string(count(Verdict::kDetected)) + ",\n";
  out += "    \"missed\": " + std::to_string(count(Verdict::kMissed)) + ",\n";
  out += "    \"false_positive\": " + std::to_string(count(Verdict::kFalsePositive)) + ",\n";
  out += "    \"true_negative\": " + std::to_string(count(Verdict::kTrueNegative)) + ",\n";
  out += "    \"detection_rate_detectable\": " + fmt_rate(detection_rate_detectable()) + "\n";
  out += "  },\n";

  out += "  \"by_kind\": {";
  bool first = true;
  for (const auto& [kind, ks] : by_kind) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + kind + "\": {";
    out += "\"scenarios\": " + std::to_string(ks.scenarios);
    out += ", \"detected\": " + std::to_string(ks.detected);
    out += ", \"missed\": " + std::to_string(ks.missed);
    out += ", \"false_positive\": " + std::to_string(ks.false_positive);
    out += ", \"true_negative\": " + std::to_string(ks.true_negative);
    out += ", \"recovered\": " + std::to_string(ks.recovered);
    out += ", \"detection_rate\": " + fmt_rate(ks.detection_rate());
    out += ", \"mean_latency_us\": " + std::to_string(ks.mean_latency());
    out += "}";
  }
  out += "\n  },\n";

  out += "  \"scenarios\": [";
  first = true;
  for (const auto& r : results) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + r.name + "\"";
    out += ", \"kind\": \"" +
           std::string(r.fault_planned ? faults::to_string(r.fault.kind) : "none") + "\"";
    out += ", \"target\": \"" + (r.fault_planned ? r.fault.target : "") + "\"";
    out += ", \"verdict\": \"" + std::string(to_string(r.verdict)) + "\"";
    out += ", \"manifested\": " + std::string(r.fault_manifested ? "true" : "false");
    out += ", \"latency_us\": " + std::to_string(r.detection_latency);
    out += ", \"errors_on_target\": " + std::to_string(r.errors_on_target);
    out += ", \"errors_off_target\": " + std::to_string(r.errors_off_target);
    out += ", \"recovered\": " + std::string(r.recovered ? "true" : "false");
    out += ", \"trace_fp\": \"" + r.trace.fingerprint() + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace trader::testkit
