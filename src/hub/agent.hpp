// The SUO side of a hub link.
//
// A hub publisher *pushes*: it connects out to the AwarenessHub,
// claims a slot with kHello and streams what it observes while
// answering the hub's probes and recovery commands. This is the
// ArVI-style topology — many instrumented systems feeding one central
// monitor — and it is what a real fielded SUO would run: no knowledge
// of the fleet, just "send what you observe, answer pings, act on
// kRecover, say goodbye".
//
// SuoLink is that end of the socket and nothing more: the slot claim
// (kHello -> kHelloAck, negotiated version), the link's frame sequence
// counter and the idempotent kRecover reply. Every SUO-side driver owns
// one — run_hub_publisher(), the recovery campaign, the testkit's hub
// backend, the tests and benches.
//
// run_hub_publisher() is the whole child-process body used by the
// hub_host example (fork per SUO) and by in-process test threads: a
// private simulated TV whose tv.input / tv.output events become frames.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "diagnosis/synthetic_program.hpp"
#include "ipc/transport.hpp"
#include "runtime/sim_time.hpp"
#include "tv/tv_system.hpp"

namespace trader::hub {

class AwarenessHub;

/// What the SUO reports back for one executed kRecover command.
struct RecoverOutcome {
  bool ok = false;
  std::string detail;
};

/// One SUO's end of a hub link.
class SuoLink {
 public:
  /// Connect to the hub listening at `path`, send kHello claiming `slot`
  /// (advertising `max_version`) and wait for the reply, all within one
  /// `timeout_ms` wall deadline. A driver that polls the hub on the
  /// calling thread passes it as `pump`: the hub is polled between
  /// nonblocking reads. Returns the reply type — kHelloAck on success, the hub's
  /// kShutdown on refusal — and kShutdown too when no reply arrived
  /// (connect or send failure, EOF, deadline). Replaces any previous
  /// socket; the seq counter and the recover-ack cache carry over to
  /// the new connection.
  ipc::FrameType claim(const std::string& path, const std::string& slot,
                       AwarenessHub* pump = nullptr, int timeout_ms = 2000,
                       std::uint8_t max_version = ipc::kProtocolVersion);

  /// Version negotiated by the last successful claim (0 otherwise).
  std::uint8_t version() const { return version_; }

  ipc::FramedSocket& socket() { return sock_; }

  /// The link's frame sequence counter: next_seq() stamps one frame,
  /// seq() hands the counter to a batch stamper (SpectrumReporter).
  std::uint32_t next_seq() { return ++seq_; }
  std::uint32_t& seq() { return seq_; }

  /// The kRecoverAck for `cmd`, stamped with the next seq and `time`.
  /// `act` performs the action and reports its outcome — unless `cmd`
  /// repeats the last acted-on nonzero token: the hub resends a command
  /// whose ack was lost, so the cached outcome is replayed instead of
  /// acting twice (a double restart is exactly the storm the hub-side
  /// guards exist to prevent) and duplicates() counts it.
  ipc::Frame recover_ack(const ipc::Frame& cmd, runtime::SimTime time,
                         const std::function<RecoverOutcome()>& act);
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  ipc::FramedSocket sock_;
  std::uint8_t version_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t last_token_ = 0;
  RecoverOutcome last_outcome_;
  std::uint64_t duplicates_ = 0;
};

/// Optional spectrum streaming (fleet-level online diagnosis). When
/// enabled the publisher also hosts a SyntheticProgram: every synthetic
/// key press runs one instrumented program step whose block coverage +
/// error verdict is shipped to the hub as kSpectrum frames — but only
/// when the negotiated protocol version carries them (a v1 hub simply
/// never sees spectra; the event stream is unaffected).
struct PublisherDiagConfig {
  bool enabled = false;
  diagnosis::SyntheticProgramConfig program;
  /// Seed the program fault into this feature (SIZE_MAX = no fault).
  std::size_t fault_feature = SIZE_MAX;
  std::size_t fault_index = 0;
  /// Ship pending spectra every N sealed steps.
  std::size_t flush_steps = 8;
};

struct PublisherConfig {
  std::string hub_path;    ///< AF_UNIX path of the hub listener.
  std::string name;        ///< Slot to claim (kHello peer name).
  tv::TvConfig tv;
  std::uint64_t seed = 7;  ///< Key-press stream seed (per publisher).
  /// Virtual time per loop iteration and total virtual horizon.
  runtime::SimDuration step = runtime::msec(20);
  runtime::SimTime horizon = runtime::msec(3000);
  /// A seeded remote-control key press every `key_period` of virtual
  /// time (0 = no synthetic input).
  runtime::SimDuration key_period = runtime::msec(200);
  /// Wall-clock pause per iteration, microseconds — paces the stream so
  /// liveness probing has time to happen (0 = stream flat out).
  std::int64_t pace_us = 0;
  int connect_timeout_ms = 2000;
  PublisherDiagConfig diag;
};

struct PublisherStats {
  std::uint64_t events_sent = 0;
  std::uint64_t probes_answered = 0;
  std::uint64_t spectrum_steps = 0;   ///< Sealed instrumented steps.
  std::uint64_t spectrum_frames = 0;  ///< kSpectrum frames shipped.
  std::uint64_t recover_commands = 0;    ///< kRecover frames executed.
  std::uint64_t recover_repairs = 0;     ///< Executions that cleared the fault.
  std::uint64_t recover_duplicates = 0;  ///< Replayed cached acks (hub retries).
  std::uint8_t negotiated_version = 0;  ///< From the kHelloAck.
  bool rejected = false;   ///< No kHelloAck came back (refused or no reply).
  bool evicted = false;    ///< Hub closed the link before the horizon.
};

/// Connect, claim the slot, stream to the horizon, say kShutdown.
/// Returns 0 on an orderly run, 1 on connect/handshake failure, 2 when
/// the hub dropped the link mid-stream. `out` (optional) receives the
/// final stats.
int run_hub_publisher(const PublisherConfig& config, PublisherStats* out = nullptr);

}  // namespace trader::hub
