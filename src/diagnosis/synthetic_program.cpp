#include "diagnosis/synthetic_program.hpp"

#include <algorithm>
#include <stdexcept>

namespace trader::diagnosis {

SyntheticProgram::SyntheticProgram(SyntheticProgramConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.feature_count == 0) throw std::invalid_argument("feature_count must be > 0");
  common_count_ = static_cast<std::size_t>(
      static_cast<double>(config_.total_blocks) * config_.common_fraction);
  shared_count_ = static_cast<std::size_t>(
      static_cast<double>(config_.total_blocks) * config_.shared_fraction);
  if (common_count_ + shared_count_ >= config_.total_blocks) {
    throw std::invalid_argument("common+shared fractions leave no feature blocks");
  }
  per_feature_ = (config_.total_blocks - common_count_ - shared_count_) / config_.feature_count;
  if (per_feature_ == 0) throw std::invalid_argument("too many features for block count");
  fault_block_ = feature_begin(0);
}

std::size_t SyntheticProgram::feature_begin(std::size_t feature) const {
  return common_count_ + shared_count_ + feature * per_feature_;
}

std::size_t SyntheticProgram::feature_end(std::size_t feature) const {
  return feature_begin(feature) + per_feature_;
}

void SyntheticProgram::set_fault_in_feature(std::size_t feature, std::size_t index) {
  if (feature >= config_.feature_count) throw std::out_of_range("no such feature");
  fault_block_ = feature_begin(feature) + (index % per_feature_);
}

void SyntheticProgram::set_fault_block(std::size_t block) {
  if (block >= config_.total_blocks) throw std::out_of_range("no such block");
  fault_block_ = block;
}

std::size_t SyntheticProgram::feature_of(std::size_t block) const {
  if (block < common_count_ + shared_count_) return static_cast<std::size_t>(-1);
  const std::size_t f = (block - common_count_ - shared_count_) / per_feature_;
  return f < config_.feature_count ? f : static_cast<std::size_t>(-1);
}

bool SyntheticProgram::restart_unit(std::size_t block) {
  const std::size_t feature = feature_of(block);
  return feature != SIZE_MAX && feature == feature_of(fault_block_) && restart_all();
}

bool SyntheticProgram::restart_all() {
  const bool repairs = has_fault();
  clear_fault();
  return repairs;
}

bool SyntheticProgram::run_step(std::size_t feature,
                                observation::BlockCoverageRecorder& coverage) {
  if (feature >= config_.feature_count) throw std::out_of_range("no such feature");

  // Common infrastructure runs on every step (event loop, dispatching).
  coverage.hit_range(0, common_count_);
  bool fault_executed = fault_block_ < common_count_;

  // A varying slice of the shared utility pool: one Bernoulli draw per
  // block, ascending, packed 64 to a word-aligned mask.
  for (std::size_t first = shared_begin(); first < shared_end();) {
    const std::size_t stop = std::min(shared_end(), (first | 63) + 1);
    std::uint64_t bits = 0;
    for (std::size_t b = first; b < stop; ++b) {
      bits |= static_cast<std::uint64_t>(rng_.bernoulli(config_.shared_cover)) << (b - first);
    }
    coverage.hit_mask(first, bits);
    const std::size_t offset = fault_block_ - first;
    if (offset < stop - first) fault_executed |= ((bits >> offset) & 1) != 0;
    first = stop;
  }

  // The active feature's handler: a contiguous prefix of the feature's
  // blocks, its length varying per activation — deep branches of the
  // handler are not reached on every key press.
  const double cover =
      rng_.uniform(config_.feature_cover_min, config_.feature_cover_max);
  const auto begin = feature_begin(feature);
  const auto count = static_cast<std::size_t>(static_cast<double>(per_feature_) * cover);
  coverage.hit_range(begin, begin + count);
  fault_executed |= fault_block_ - begin < count;  // unsigned: below begin wraps high

  if (!fault_executed) return false;
  return config_.fault_manifestation >= 1.0 || rng_.bernoulli(config_.fault_manifestation);
}

std::vector<bool> SyntheticProgram::run_scenario(const std::vector<std::size_t>& features,
                                                 observation::BlockCoverageRecorder& coverage) {
  std::vector<bool> errors;
  errors.reserve(features.size());
  for (const std::size_t f : features) {
    errors.push_back(run_step(f, coverage));
    coverage.end_step();
  }
  return errors;
}

}  // namespace trader::diagnosis
