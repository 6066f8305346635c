// SpectrumReporter: the SUO side of fleet-level online diagnosis.
//
// §4.4 instruments the TV software to record which blocks execute
// between two key presses; §5 asks for that spectrum data to feed the
// awareness loop *at runtime* instead of a post-mortem. The reporter is
// the instrumentation drain a fielded SUO runs: block hits accumulate
// into the current step, end_step(error) seals the step with its error
// verdict, and flush() packages the sealed steps into versioned
// kSpectrum wire frames (chunked so each frame respects the payload
// cap) ready to push over the SUO's existing hub link between probes.
//
// The reporter never blocks and never allocates per hit beyond the
// touched-id list; a step that cannot fit a frame at all (more ids than
// one payload carries) is counted in oversize_steps and dropped rather
// than tearing the stream — diagnosis degrades, the link survives.
#pragma once

#include <cstdint>
#include <vector>

#include "ipc/wire.hpp"
#include "observation/coverage.hpp"

namespace trader::fleetdiag {

struct ReporterConfig {
  /// Size of the instrumented block universe (ids are < block_count).
  std::uint32_t block_count = 0;
  /// Seal flush() frames at this payload size (<= ipc::kMaxFramePayload).
  std::size_t frame_budget = ipc::kMaxFramePayload;
  /// flush_due() turns true once this many steps are pending (0 = only
  /// explicit flushes).
  std::size_t flush_steps = 8;
};

class SpectrumReporter {
 public:
  explicit SpectrumReporter(ReporterConfig config);

  /// Mark a block executed in the current (open) step.
  void hit(std::uint32_t block);

  /// Seal the open step with its error verdict.
  void end_step(bool error);

  /// Seal a whole step from a recorder's open step (the SyntheticProgram
  /// integration path: run_step() marks coverage, this drains it).
  void end_step_from(const observation::BlockCoverageRecorder& coverage, bool error);

  /// Seal a pre-sorted spectrum directly (ids strictly ascending).
  void add_step(std::vector<std::uint32_t> sorted_blocks, bool error);

  std::size_t pending_steps() const { return pending_.size(); }
  bool flush_due() const {
    return config_.flush_steps > 0 && pending_.size() >= config_.flush_steps;
  }

  /// Package every pending step into kSpectrum frames (possibly several,
  /// each within frame_budget) and clear the backlog. Frames carry
  /// ascending seq numbers from the shared counter the caller threads
  /// through `seq`.
  std::vector<ipc::Frame> flush(std::uint32_t& seq, runtime::SimTime now = 0);

  // Lifetime stats.
  std::uint64_t steps_reported() const { return steps_reported_; }
  std::uint64_t frames_emitted() const { return frames_emitted_; }
  std::uint64_t oversize_steps() const { return oversize_steps_; }

  const ReporterConfig& config() const { return config_; }

 private:
  ReporterConfig config_;
  std::vector<bool> current_;              ///< Open-step membership bits.
  std::vector<std::uint32_t> touched_;     ///< Open-step ids, hit order.
  std::vector<ipc::SpectrumStep> pending_; ///< Sealed, not yet flushed.
  std::uint64_t steps_reported_ = 0;
  std::uint64_t frames_emitted_ = 0;
  std::uint64_t oversize_steps_ = 0;
};

}  // namespace trader::fleetdiag
