// Incremental spectrum-based fault localization counts.
//
// The offline SflRanker (spectrum.hpp) scans a full coverage matrix per
// ranking — fine for a post-mortem, useless for a hub ingesting spectra
// from a fleet at wire rate. IncrementalSflCounts keeps the §4.4
// contingency table current one spectrum at a time:
//
//   add(blocks, error):  for each executed block b
//                          error  ? ++a11[b] : ++a10[b]
//                        error ? ++error_steps : ++pass_steps
//
// The per-block counts the similarity coefficients need follow without
// any rescan, because the two columns a spectrum does NOT touch are
// derivable from the step totals:
//
//   a01[b] = error_steps - a11[b]     (erroneous steps that skipped b)
//   a00[b] = pass_steps  - a10[b]     (passing steps that skipped b)
//
// so one report costs O(blocks touched), never O(blocks x steps).
// report() reproduces SflRanker::rank() bit-for-bit: same integer
// counts, same similarity() doubles, same stable descending sort — the
// equivalence the online/offline differential tests pin.
#pragma once

#include <cstdint>
#include <vector>

#include "diagnosis/spectrum.hpp"
#include "journal/codec.hpp"

namespace trader::diagnosis {

class IncrementalSflCounts {
 public:
  /// Account one spectrum: the sorted-unique ids of the blocks executed
  /// in a step that did (`error`) or did not show an error. Ids may
  /// exceed any previous maximum; storage grows to the largest id seen.
  void add(const std::vector<std::uint32_t>& blocks, bool error);

  std::size_t steps() const { return error_steps_ + pass_steps_; }
  std::size_t error_steps() const { return error_steps_; }
  std::size_t pass_steps() const { return pass_steps_; }

  /// One past the largest block id ever seen (the ranking universe).
  std::size_t block_span() const { return a11_.size(); }
  /// Blocks currently executed in >= 1 accounted step.
  std::size_t touched_blocks() const { return touched_; }
  bool touched(std::size_t block) const {
    return block < a11_.size() && a11_[block] + a10_[block] > 0;
  }

  /// Full contingency counts of one block (a01/a00 derived).
  SflCounts counts(std::size_t block) const;

  /// Full ranking over touched blocks — identical (scores, order,
  /// blocks_considered) to SflRanker::rank() over the same spectra.
  DiagnosisReport report(Coefficient coefficient = Coefficient::kOchiai) const;

  /// First k entries of report(kOchiai).ranking, bit-identical: score
  /// descending, block id ascending within a tie. One scan keeps a
  /// sorted list of k and computes a block's score only when it could
  /// enter: since every block shares error_steps, its exact key
  /// a11^2 / (a11 + a10) rules most blocks out without a sqrt, and a
  /// stored bound on the scores of each chunk of kChunk ids rules out
  /// whole chunks without reading their counts. The scan renews the
  /// bounds of the chunks it reads, so calls on one accumulator must
  /// not overlap (FleetAggregator calls it under its lock).
  std::vector<BlockScore> top_k(std::size_t k) const;

  /// Fold another accumulator in (fleet-wide union over one id space).
  void merge(const IncrementalSflCounts& other);

  void clear();

  /// Serialize the full accumulator for the hub's checkpoint files.
  /// load() fully overwrites current state and fails closed (false,
  /// counts cleared) on any malformed input, including a block count
  /// above its step total; `touched_` is recomputed rather than
  /// trusted from disk.
  void save(journal::Encoder& out) const;
  bool load(journal::Decoder& in);

 private:
  /// Ids per chunk of the pruned top_k scan.
  static constexpr std::size_t kChunk = 64;

  void ensure_span(std::uint32_t max_block);

  std::vector<std::uint32_t> a11_;  ///< Executed-in-error-step, per block.
  std::vector<std::uint32_t> a10_;  ///< Executed-in-pass-step, per block.
  /// Per chunk, an upper bound on the Ochiai score, as similarity()
  /// computes it, of each of its blocks; +inf when unknown. Every
  /// rounded operation of that score is monotone, so a block's score
  /// rises only in an error step that ran it: a pass step keeps every
  /// bound, and an error step resets the chunks it ran in to +inf.
  /// top_k() renews the bound of every chunk it scans; merge() and
  /// load() reset them all.
  mutable std::vector<double> chunk_score_;
  std::size_t error_steps_ = 0;
  std::size_t pass_steps_ = 0;
  std::size_t touched_ = 0;
};

}  // namespace trader::diagnosis
