#include "hub/agent.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <thread>

#include "faults/injector.hpp"
#include "fleetdiag/reporter.hpp"
#include "hub/hub.hpp"
#include "ipc/wire.hpp"
#include "recovery/escalation.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"
#include "tv/keys.hpp"

namespace trader::hub {

namespace {

/// Keys a synthetic viewer presses (no power toggles: a publisher that
/// turns its own set off produces a silent, uninteresting stream).
constexpr tv::Key kViewerKeys[] = {
    tv::Key::kChannelUp, tv::Key::kChannelDown, tv::Key::kVolumeUp,
    tv::Key::kVolumeDown, tv::Key::kDigit1,     tv::Key::kDigit2,
};

}  // namespace

ipc::FrameType SuoLink::claim(const std::string& path, const std::string& slot,
                              AwarenessHub* pump, int timeout_ms, std::uint8_t max_version) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto remaining_ms = [&deadline] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               deadline - std::chrono::steady_clock::now())
        .count();
  };
  version_ = 0;
  sock_ = ipc::FramedSocket(ipc::connect_unix_retry(path, timeout_ms));
  ipc::Frame hello;
  hello.type = ipc::FrameType::kHello;
  hello.detail = slot;
  hello.max_version = max_version;
  if (!sock_.valid() || !sock_.send(hello)) return ipc::FrameType::kShutdown;
  for (;;) {
    // A pumped hub runs on this thread, so the read must not block it.
    const int wait_ms =
        pump != nullptr ? 0 : static_cast<int>(std::max<std::int64_t>(remaining_ms(), 0));
    ipc::Frame reply;
    const auto st = sock_.recv(reply, wait_ms);
    if (st == ipc::FramedSocket::RecvStatus::kFrame) {
      if (reply.type == ipc::FrameType::kHelloAck) version_ = reply.version;
      return reply.type;
    }
    if (st != ipc::FramedSocket::RecvStatus::kTimeout || remaining_ms() <= 0) {
      return ipc::FrameType::kShutdown;
    }
    if (pump != nullptr && pump->poll(10) < 0) return ipc::FrameType::kShutdown;
  }
}

ipc::Frame SuoLink::recover_ack(const ipc::Frame& cmd, runtime::SimTime time,
                                const std::function<RecoverOutcome()>& act) {
  ipc::Frame ack;
  ack.type = ipc::FrameType::kRecoverAck;
  ack.seq = next_seq();
  ack.time = time;
  ack.action = cmd.action;
  ack.token = cmd.token;
  ack.unit = cmd.unit;
  if (cmd.token != 0 && cmd.token == last_token_) {
    ++duplicates_;
  } else {
    last_token_ = cmd.token;
    last_outcome_ = act();
  }
  ack.ok = last_outcome_.ok;
  ack.detail = last_outcome_.detail;
  return ack;
}

int run_hub_publisher(const PublisherConfig& config, PublisherStats* out) {
  PublisherStats stats;
  SuoLink link;
  if (link.claim(config.hub_path, config.name, nullptr, config.connect_timeout_ms) !=
      ipc::FrameType::kHelloAck) {
    stats.rejected = true;
    if (out != nullptr) *out = stats;
    return 1;
  }
  ipc::FramedSocket& sock = link.socket();
  stats.negotiated_version = link.version();

  // Host a private TV simulation; stream its bus traffic to the hub.
  runtime::Scheduler sched;
  runtime::EventBus bus;
  faults::FaultInjector injector{runtime::Rng(config.seed ^ 0xfa17)};
  tv::TvSystem tv(sched, bus, injector, config.tv);

  bool link_ok = true;
  const auto forward = [&](const runtime::Event& ev, ipc::FrameType type) {
    if (!link_ok) return;
    ipc::Frame f;
    f.type = type;
    f.seq = link.next_seq();
    f.time = ev.timestamp;
    f.event = ev;
    if (sock.send(f)) {
      ++stats.events_sent;
    } else {
      link_ok = false;
    }
  };
  const auto in_sub = bus.subscribe("tv.input", [&](const runtime::Event& ev) {
    forward(ev, ipc::FrameType::kInputEvent);
  });
  const auto out_sub = bus.subscribe("tv.output", [&](const runtime::Event& ev) {
    forward(ev, ipc::FrameType::kOutputEvent);
  });

  // Spectrum streaming is gated on the *negotiated* version: against a
  // hub that only speaks v1 the instrumented program never runs and no
  // kSpectrum frame is ever sent (fail-closed on the sender side too).
  const bool stream_spectra = config.diag.enabled &&
                              stats.negotiated_version >= ipc::kSpectrumMinVersion;
  std::unique_ptr<diagnosis::SyntheticProgram> program;
  std::unique_ptr<fleetdiag::SpectrumReporter> reporter;
  observation::BlockCoverageRecorder coverage(0);
  if (stream_spectra) {
    program = std::make_unique<diagnosis::SyntheticProgram>(config.diag.program);
    if (config.diag.fault_feature != SIZE_MAX) {
      program->set_fault_in_feature(config.diag.fault_feature, config.diag.fault_index);
    }
    fleetdiag::ReporterConfig rc_cfg;
    rc_cfg.block_count = static_cast<std::uint32_t>(program->block_count());
    rc_cfg.flush_steps = config.diag.flush_steps;
    reporter = std::make_unique<fleetdiag::SpectrumReporter>(rc_cfg);
    coverage = observation::BlockCoverageRecorder(program->block_count());
  }
  const auto ship_spectra = [&](bool force) {
    if (reporter == nullptr || !link_ok) return;
    if (!force && !reporter->flush_due()) return;
    for (ipc::Frame& f : reporter->flush(link.seq(), sched.now())) {
      if (!sock.send(f)) {
        link_ok = false;
        return;
      }
      ++stats.spectrum_frames;
    }
  };

  tv.start();
  runtime::Rng keys(config.seed);
  runtime::SimTime next_key = config.key_period;
  int rc = 0;

  // SUO-side actuation: resync never repairs, a targeted restart
  // repairs only when the suspect block lives in the faulty feature, the
  // brute-force rungs always do.
  const auto execute_recover = [&](const ipc::Frame& f) {
    RecoverOutcome outcome;
    switch (static_cast<recovery::RecoveryAction>(f.action)) {
      case recovery::RecoveryAction::kResync:
        // Cheapest rung: re-announce believed state. Does not touch the
        // program fault — a real defect survives a state resync.
        tv.republish_outputs();
        outcome = {true, "resynced"};
        break;
      case recovery::RecoveryAction::kRestartUnit: {
        if (program == nullptr) {
          outcome.detail = "no instrumented program";
          break;
        }
        // Restarting the unit repairs the fault only when the suspect
        // block actually lives in the faulty feature — recovery
        // precision is measurable against ground truth.
        const bool repairs = program->restart_unit(f.block);
        if (repairs) ++stats.recover_repairs;
        outcome = {true, (repairs ? "repaired " : "restarted ") + f.unit};
        break;
      }
      case recovery::RecoveryAction::kRestartDependents:
      case recovery::RecoveryAction::kFullRestart:
        // Brute force: restarting the dependency closure (or everything)
        // repairs regardless of where the fault lives.
        if (program != nullptr && program->restart_all()) ++stats.recover_repairs;
        tv.republish_outputs();
        outcome = {true, "restarted all"};
        break;
      default:
        outcome.detail = "unsupported action";
        break;
    }
    ++stats.recover_commands;
    return outcome;
  };

  while (link_ok && sched.now() < config.horizon) {
    const runtime::SimTime target =
        std::min(config.horizon, sched.now() + config.step);
    if (config.key_period > 0 && sched.now() >= next_key) {
      const auto pick = static_cast<std::size_t>(
          keys.uniform_int(0, static_cast<std::int64_t>(std::size(kViewerKeys)) - 1));
      tv.press(kViewerKeys[pick]);
      if (reporter != nullptr) {
        // One instrumented program step per key press: the pressed key
        // activates one feature of the synthetic 60k-block program.
        const std::size_t feature = pick % program->feature_count();
        const bool err = program->run_step(feature, coverage);
        reporter->end_step_from(coverage, err);
        // Drop (not archive) the drained step: a long-running publisher
        // must not grow a step matrix it never reads.
        coverage.clear();
        ++stats.spectrum_steps;
        ship_spectra(false);
      }
      next_key += config.key_period;
    }
    sched.run_until(target);  // bus callbacks stream events inline

    // Service hub traffic: liveness probes and eviction notices.
    for (;;) {
      ipc::Frame f;
      const auto st = sock.recv(f, 0);
      if (st == ipc::FramedSocket::RecvStatus::kTimeout) break;
      if (st != ipc::FramedSocket::RecvStatus::kFrame) {
        stats.evicted = true;
        link_ok = false;
        rc = 2;
        break;
      }
      if (f.type == ipc::FrameType::kHeartbeat) {
        ipc::Frame ack;
        ack.type = ipc::FrameType::kHeartbeatAck;
        ack.seq = link.next_seq();
        ack.nonce = f.nonce;
        if (!sock.send(ack)) {
          link_ok = false;
          rc = 2;
          break;
        }
        ++stats.probes_answered;
      } else if (f.type == ipc::FrameType::kRecover) {
        // Hub-commanded recovery (v3 links only — the hub version-gates
        // its side, so a v2 publisher never reaches this branch).
        if (!sock.send(link.recover_ack(f, sched.now(), [&] { return execute_recover(f); }))) {
          link_ok = false;
          rc = 2;
          break;
        }
      } else if (f.type == ipc::FrameType::kShutdown) {
        stats.evicted = true;
        link_ok = false;
        rc = 2;
        break;
      }
      // Anything else (stray acks) is ignored: the hub never drives us.
    }
    if (config.pace_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(config.pace_us));
    }
  }

  bus.unsubscribe(in_sub);
  bus.unsubscribe(out_sub);
  ship_spectra(true);  // drain the spectrum backlog before goodbye
  if (link_ok) {
    ipc::Frame bye;
    bye.type = ipc::FrameType::kShutdown;
    bye.seq = link.next_seq();
    bye.detail = "horizon reached";
    sock.send(bye);
  }
  stats.recover_duplicates = link.duplicates();
  if (out != nullptr) *out = stats;
  return rc;
}

}  // namespace trader::hub
