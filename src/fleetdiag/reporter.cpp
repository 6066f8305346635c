#include "fleetdiag/reporter.hpp"

#include <algorithm>

namespace trader::fleetdiag {

SpectrumReporter::SpectrumReporter(ReporterConfig config)
    : config_(config), current_(config.block_count, false) {
  if (config_.frame_budget > ipc::kMaxFramePayload) config_.frame_budget = ipc::kMaxFramePayload;
}

void SpectrumReporter::hit(std::uint32_t block) {
  if (block >= config_.block_count) return;
  if (current_[block]) return;
  current_[block] = true;
  touched_.push_back(block);
}

void SpectrumReporter::end_step(bool error) {
  // Hits usually arrive in id order, so the check is the common cost and
  // the sort the rare one.
  if (!std::is_sorted(touched_.begin(), touched_.end())) {
    std::sort(touched_.begin(), touched_.end());
  }
  for (const std::uint32_t b : touched_) current_[b] = false;
  std::vector<std::uint32_t> blocks;
  blocks.swap(touched_);
  add_step(std::move(blocks), error);
}

void SpectrumReporter::end_step_from(const observation::BlockCoverageRecorder& coverage,
                                     bool error) {
  const std::vector<std::uint32_t>& touched = coverage.current_touched();
  std::vector<std::uint32_t> blocks;
  if (coverage.block_count() <= config_.block_count) {
    blocks.assign(touched.begin(), touched.end());
  } else {
    blocks.reserve(touched.size());
    for (const std::uint32_t b : touched) {
      if (b < config_.block_count) blocks.push_back(b);
    }
  }
  // Filtering keeps the order, so an ascending recorder needs no sort.
  if (!coverage.touched_ascending()) std::sort(blocks.begin(), blocks.end());
  add_step(std::move(blocks), error);
}

void SpectrumReporter::add_step(std::vector<std::uint32_t> sorted_blocks, bool error) {
  ipc::SpectrumStep step;
  step.error = error;
  step.blocks = std::move(sorted_blocks);
  // A step too wide for even an empty frame can never ship; drop it
  // whole rather than emitting a frame encode_frame() would refuse.
  const std::size_t bytes = ipc::spectrum_step_bytes(step.blocks.size());
  if (ipc::kSpectrumHeaderBytes + bytes > config_.frame_budget) {
    ++oversize_steps_;
    return;
  }
  pending_.push_back(std::move(step));
  ++steps_reported_;
}

std::vector<ipc::Frame> SpectrumReporter::flush(std::uint32_t& seq, runtime::SimTime now) {
  std::vector<ipc::Frame> frames;
  if (pending_.empty()) return frames;

  ipc::Frame frame;
  frame.type = ipc::FrameType::kSpectrum;
  frame.block_count = config_.block_count;
  frame.time = now;
  std::size_t used = ipc::kSpectrumHeaderBytes;
  for (ipc::SpectrumStep& step : pending_) {
    const std::size_t need = ipc::spectrum_step_bytes(step.blocks.size());
    if (!frame.spectra.empty() && used + need > config_.frame_budget) {
      frame.seq = ++seq;
      frames.push_back(std::move(frame));
      frame = ipc::Frame{};
      frame.type = ipc::FrameType::kSpectrum;
      frame.block_count = config_.block_count;
      frame.time = now;
      used = ipc::kSpectrumHeaderBytes;
    }
    used += need;
    frame.spectra.push_back(std::move(step));
  }
  if (!frame.spectra.empty()) {
    frame.seq = ++seq;
    frames.push_back(std::move(frame));
  }
  pending_.clear();
  frames_emitted_ += frames.size();
  return frames;
}

}  // namespace trader::fleetdiag
