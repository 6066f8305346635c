// Golden traces: canonical, hashable recordings of a run.
//
// Runtime-verification practice matches observed traces against
// reference traces (Chupilko & Kamkin); the sharded-fleet determinism
// claim — same seed => identical behaviour at any shard count — is the
// same idea turned inward. A GoldenTrace serializes the ordered stream
// of commands, error reports, trace-log records and deterministic
// metric counters into canonical text lines; two runs compare with a
// single fingerprint equality, and a mismatch points at the first
// diverging line instead of leaving the reader to eyeball two logs.
//
// Only deterministic material may enter a golden trace: virtual times,
// event payloads, error reports, counter values. Wall-clock latency
// histograms and per-shard topology counters (cross_shard_out, shard
// gauges) must stay out, or traces stop being comparable across shard
// counts and hosts. The same exclusion applies to the ipc.* wire
// counters (frames/bytes sent and received, heartbeat misses,
// reconnects, RTT): they depend on transport framing, retry timing and
// the kernel scheduler, so a campaign over AF_UNIX must fingerprint
// identically to its in-process twin — capture_metrics callers filter
// to the deterministic prefixes (comparator.*, model.*) only. The
// hub.recovery.* counters are likewise excluded by that filter: ack
// round-trips, retries and token-bucket refills ride wall-clock
// timers, so recovery accounting would diverge between transports even
// when the repaired behaviour is identical (pinned by
// RecoveryLoop.GoldenTraceFingerprintsExcludeRecoveryMetrics). So are
// the hub.journal.* counters: append/checkpoint/fsync tallies track
// durability plumbing, and a journaled run must fingerprint
// identically to an unjournaled one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_time.hpp"
#include "runtime/trace_log.hpp"

namespace trader::testkit {

/// Result of diffing two golden traces.
struct TraceDiff {
  bool identical = true;
  std::size_t first_divergence = 0;  ///< Line index, valid when !identical.
  std::string left;                  ///< Diverging line ("" = side exhausted).
  std::string right;
  std::string describe() const;
};

/// Append-only canonical recording of one run.
class GoldenTrace {
 public:
  /// Append one canonical line: "t=<time> <category> <detail>".
  void add(runtime::SimTime t, const std::string& category, const std::string& detail);

  /// Append a pre-formatted line verbatim.
  void add_line(std::string line);

  /// Record every aspect error in the (deterministically sorted) list.
  void capture_errors(const std::vector<core::AspectError>& errors);

  /// Record the deterministic counters of a metrics snapshot (see
  /// MetricsSnapshot::counter_lines for the prefix filter semantics).
  void capture_metrics(const runtime::MetricsSnapshot& snap,
                       const std::vector<std::string>& prefixes);

  /// Wire this trace as the live tap of `log`: every record logged from
  /// now on lands in the trace as it happens. The tap holds a pointer
  /// to this trace — clear it (or destroy the log) before the trace
  /// dies.
  void tap(runtime::TraceLog& log);

  const std::vector<std::string>& lines() const { return lines_; }
  bool empty() const { return lines_.empty(); }

  /// 16-hex-digit FNV-1a fingerprint over all lines.
  std::string fingerprint() const;

  /// Line-by-line comparison with a first-divergence pointer.
  static TraceDiff diff(const GoldenTrace& a, const GoldenTrace& b);

 private:
  std::vector<std::string> lines_;
};

}  // namespace trader::testkit
