// Block-coverage recorder — the instrumentation backend for §4.4.
//
// The diagnosis case study instruments C code "to record which blocks
// are executed", then groups hits per scenario step (between two key
// presses) into a *spectrum* per block. BlockCoverageRecorder implements
// exactly that: hit(block) marks a block in the current step; end_step()
// closes the step. The diagnosis module consumes the resulting matrix.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace trader::observation {

/// Records block hits grouped into scenario steps.
///
/// The open step is a bitset of 64-bit words plus its touched ids in
/// first-hit order, so a contiguous range or a 64-block mask is marked a
/// word at a time. end_step() copies the open step into the matrix, one
/// bit vector per completed step (column-major in SFL terms: the
/// spectrum of block b is the sequence matrix()[s][b] over steps s).
class BlockCoverageRecorder {
 public:
  /// Throws std::invalid_argument above UINT32_MAX blocks (ids are 32-bit).
  explicit BlockCoverageRecorder(std::size_t block_count);

  std::size_t block_count() const { return block_count_; }

  /// Mark a block as executed in the current step.
  void hit(std::size_t block) {
    if (block < block_count_) mark(block >> 6, std::uint64_t{1} << (block & 63));
    ++raw_hits_;
  }

  /// Exactly hit(b) for every b in [begin, end), ascending.
  void hit_range(std::size_t begin, std::size_t end);

  /// Exactly hit(first + i) for every set bit i of `bits`, ascending.
  void hit_mask(std::size_t first, std::uint64_t bits);

  /// Close the current step and start a new one.
  void end_step() {
    std::vector<bool> row(block_count_, false);
    for (const std::uint32_t b : current_touched_) row[b] = true;
    steps_.push_back(std::move(row));
    hits_per_step_.push_back(current_touched_.size());
    reset_open_step();
  }

  /// Distinct blocks hit in the still-open step, in first-hit order —
  /// lets a streaming consumer (fleetdiag::SpectrumReporter) read the
  /// step in O(hits) instead of scanning all block_count() bits.
  const std::vector<std::uint32_t>& current_touched() const { return current_touched_; }
  /// True while current_touched() ascends (hits came in id order), so a
  /// consumer that needs sorted ids can skip the check and the sort.
  bool touched_ascending() const { return touched_ascending_; }

  /// Number of completed steps.
  std::size_t step_count() const { return steps_.size(); }

  /// Was `block` executed during completed step `step`?
  bool executed(std::size_t step, std::size_t block) const {
    return steps_.at(step)[block];
  }

  /// Distinct blocks hit in a completed step.
  std::size_t blocks_in_step(std::size_t step) const { return hits_per_step_.at(step); }

  /// Distinct blocks hit in at least one completed step.
  std::size_t blocks_touched() const;

  /// Raw (non-deduplicated) hit count, for instrumentation overhead accounting.
  std::uint64_t raw_hits() const { return raw_hits_; }

  /// The full hit matrix, steps × blocks.
  const std::vector<std::vector<bool>>& matrix() const { return steps_; }

  void clear();

 private:
  /// Set `bits` in word `w` and append the newly set blocks to the
  /// touched list, ascending.
  void mark(std::size_t w, std::uint64_t bits) {
    std::uint64_t fresh = bits & ~current_[w];
    if (fresh == 0) return;
    current_[w] |= fresh;
    const std::size_t base = w << 6;
    const auto lowest = static_cast<std::uint32_t>(base + __builtin_ctzll(fresh));
    if (!current_touched_.empty() && current_touched_.back() > lowest) touched_ascending_ = false;
    const std::size_t used = current_touched_.size();
    current_touched_.resize(used + static_cast<std::size_t>(__builtin_popcountll(fresh)));
    std::uint32_t* out = current_touched_.data() + used;
    if (fresh == ~std::uint64_t{0}) {
      for (std::uint32_t i = 0; i < 64; ++i) out[i] = static_cast<std::uint32_t>(base) + i;
      return;
    }
    for (; fresh != 0; fresh &= fresh - 1) {
      *out++ = static_cast<std::uint32_t>(base + __builtin_ctzll(fresh));
    }
  }
  void reset_open_step();

  std::size_t block_count_;
  std::vector<std::uint64_t> current_;  ///< Open-step membership words.
  std::vector<std::uint32_t> current_touched_;
  bool touched_ascending_ = true;
  std::vector<std::vector<bool>> steps_;
  std::vector<std::size_t> hits_per_step_;
  std::uint64_t raw_hits_ = 0;
};

}  // namespace trader::observation
