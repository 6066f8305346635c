// Synthetic instrumented program — the 60 000-block TV software stand-in.
//
// The §4.4 case study instruments real NXP TV software (60 000 blocks)
// and injects a teletext fault. That code base is proprietary, so this
// generator builds a program with the same *spectral structure*: a pool
// of common infrastructure blocks executed on every step, per-feature
// block pools (one per remote-control feature), and partially varying
// execution within a feature from step to step. A fault is seeded into
// one block; executing it makes the step erroneous (optionally with a
// manifestation probability < 1 to model intermittent failures).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "observation/coverage.hpp"
#include "runtime/rng.hpp"

namespace trader::diagnosis {

struct SyntheticProgramConfig {
  std::size_t total_blocks = 60000;
  std::size_t feature_count = 24;    ///< Remote-control features.
  double common_fraction = 0.05;     ///< Blocks executed on every step.
  double shared_fraction = 0.10;     ///< Utility pool sampled each step.
  /// Fraction of a feature's blocks executed on a given activation
  /// (varies deterministically per step within [min, max]).
  double feature_cover_min = 0.65;
  double feature_cover_max = 0.95;
  double shared_cover = 0.25;        ///< Fraction of utilities per step.
  double fault_manifestation = 1.0;  ///< P(error | fault block executed).
  std::uint64_t seed = 1234;
};

/// A generated program whose steps produce coverage + pass/fail.
class SyntheticProgram {
 public:
  explicit SyntheticProgram(SyntheticProgramConfig config);

  const SyntheticProgramConfig& config() const { return config_; }
  std::size_t block_count() const { return config_.total_blocks; }
  std::size_t feature_count() const { return config_.feature_count; }

  /// Seed the fault into the `index`-th block of `feature`.
  void set_fault_in_feature(std::size_t feature, std::size_t index = 0);
  /// Seed the fault into an absolute block id.
  void set_fault_block(std::size_t block);
  /// Remove the seeded fault entirely — the effect of a successful
  /// repair (e.g. a hub-commanded restart of the faulty component):
  /// no step manifests an error afterwards.
  void clear_fault() { fault_block_ = static_cast<std::size_t>(-1); }
  bool has_fault() const { return fault_block_ != static_cast<std::size_t>(-1); }
  std::size_t fault_block() const { return fault_block_; }
  /// Feature owning a block (or SIZE_MAX for common/shared blocks).
  std::size_t feature_of(std::size_t block) const;

  /// Restart the feature that owns `block`: repairs the fault only when
  /// it lives in that feature. Returns whether this call repaired it.
  bool restart_unit(std::size_t block);
  /// Restart everything: repairs the fault wherever it lives. Returns
  /// whether this call repaired it.
  bool restart_all();

  /// Execute one scenario step activating `feature`; records coverage
  /// into `coverage` (the step is NOT closed — caller calls end_step())
  /// and returns whether the step manifested an error.
  bool run_step(std::size_t feature, observation::BlockCoverageRecorder& coverage);

  /// Convenience: run a whole scenario (one feature per step), closing
  /// each step; returns the error vector.
  std::vector<bool> run_scenario(const std::vector<std::size_t>& features,
                                 observation::BlockCoverageRecorder& coverage);

  // Block-range introspection (for tests).
  std::size_t common_begin() const { return 0; }
  std::size_t common_end() const { return common_count_; }
  std::size_t shared_begin() const { return common_count_; }
  std::size_t shared_end() const { return common_count_ + shared_count_; }
  std::size_t feature_begin(std::size_t feature) const;
  std::size_t feature_end(std::size_t feature) const;

 private:
  SyntheticProgramConfig config_;
  runtime::Rng rng_;
  std::size_t common_count_;
  std::size_t shared_count_;
  std::size_t per_feature_;
  std::size_t fault_block_;
};

}  // namespace trader::diagnosis
