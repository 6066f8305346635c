#include "observation/coverage.hpp"

#include <algorithm>
#include <stdexcept>

namespace trader::observation {

BlockCoverageRecorder::BlockCoverageRecorder(std::size_t block_count)
    : block_count_(block_count) {
  if (block_count > UINT32_MAX) throw std::invalid_argument("block_count exceeds 32-bit ids");
  current_.assign((block_count + 63) / 64, 0);
}

void BlockCoverageRecorder::hit_range(std::size_t begin, std::size_t end) {
  if (end <= begin) return;
  raw_hits_ += end - begin;
  end = std::min(end, block_count_);
  while (begin < end) {
    const std::size_t base = begin & ~std::size_t{63};
    const std::size_t stop = std::min(end, base + 64);
    const std::size_t width = stop - begin;
    const std::uint64_t bits = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    mark(begin >> 6, bits << (begin - base));
    begin = stop;
  }
}

void BlockCoverageRecorder::hit_mask(std::size_t first, std::uint64_t bits) {
  raw_hits_ += static_cast<std::uint64_t>(__builtin_popcountll(bits));
  if (first >= block_count_) return;
  if (block_count_ - first < 64) bits &= (std::uint64_t{1} << (block_count_ - first)) - 1;
  const std::size_t offset = first & 63;
  mark(first >> 6, bits << offset);
  if (offset != 0 && (bits >> (64 - offset)) != 0) mark((first >> 6) + 1, bits >> (64 - offset));
}

std::size_t BlockCoverageRecorder::blocks_touched() const {
  std::vector<bool> any(block_count_, false);
  for (const auto& step : steps_) {
    for (std::size_t b = 0; b < block_count_; ++b) {
      if (step[b]) any[b] = true;
    }
  }
  return static_cast<std::size_t>(std::count(any.begin(), any.end(), true));
}

void BlockCoverageRecorder::reset_open_step() {
  std::fill(current_.begin(), current_.end(), 0);
  current_touched_.clear();
  touched_ascending_ = true;
}

void BlockCoverageRecorder::clear() {
  reset_open_step();
  steps_.clear();
  hits_per_step_.clear();
  raw_hits_ = 0;
}

}  // namespace trader::observation
