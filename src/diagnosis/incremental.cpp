#include "diagnosis/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

namespace trader::diagnosis {

namespace {

/// Bound of a chunk an error step touched since top_k() last scanned it.
constexpr double kUnknownBound = std::numeric_limits<double>::infinity();

}  // namespace

void IncrementalSflCounts::ensure_span(std::uint32_t max_block) {
  if (max_block >= a11_.size()) {
    a11_.resize(max_block + 1, 0);
    a10_.resize(max_block + 1, 0);
    // New ids are untouched: every stored bound still holds.
    chunk_score_.resize((a11_.size() + kChunk - 1) / kChunk, 0.0);
  }
}

void IncrementalSflCounts::add(const std::vector<std::uint32_t>& blocks, bool error) {
  // One span check per step; the maximum (not back()) keeps unsorted
  // input in bounds.
  std::uint32_t max_block = 0;
  for (const std::uint32_t b : blocks) max_block = std::max(max_block, b);
  if (!blocks.empty()) ensure_span(max_block);
  std::uint32_t* hit = error ? a11_.data() : a10_.data();
  const std::uint32_t* other = error ? a10_.data() : a11_.data();
  std::size_t fresh = 0;
  for (const std::uint32_t b : blocks) {
    fresh += (hit[b] | other[b]) == 0;
    ++hit[b];
  }
  touched_ += fresh;
  if (error) {
    // An error step can raise the scores of the blocks it ran; every
    // other score only falls (see chunk_score_).
    for (const std::uint32_t b : blocks) chunk_score_[b / kChunk] = kUnknownBound;
    ++error_steps_;
  } else {
    ++pass_steps_;
  }
}

SflCounts IncrementalSflCounts::counts(std::size_t block) const {
  SflCounts k;
  if (block < a11_.size()) {
    k.a11 = a11_[block];
    k.a10 = a10_[block];
  }
  k.a01 = static_cast<std::uint32_t>(error_steps_) - k.a11;
  k.a00 = static_cast<std::uint32_t>(pass_steps_) - k.a10;
  return k;
}

DiagnosisReport IncrementalSflCounts::report(Coefficient coefficient) const {
  DiagnosisReport out;
  out.coefficient = coefficient;
  out.ranking.reserve(touched_);
  for (std::size_t b = 0; b < a11_.size(); ++b) {
    if (a11_[b] + a10_[b] == 0) continue;
    out.ranking.push_back(BlockScore{b, similarity(coefficient, counts(b))});
  }
  out.blocks_considered = out.ranking.size();
  std::stable_sort(out.ranking.begin(), out.ranking.end(),
                   [](const BlockScore& a, const BlockScore& b) { return a.score > b.score; });
  return out;
}

std::vector<BlockScore> IncrementalSflCounts::top_k(std::size_t k) const {
  // Every block shares F = error_steps, so Ochiai's a11 / sqrt(F * n)
  // (n = a11 + a10) orders blocks by the exact key a11^2 / n. `top`
  // holds the entries sorted by (score descending, block ascending) —
  // the order stable_sort gives report() — and at most k + 1 of them.
  // A block enters the full list only by ranking above its last entry.
  std::vector<BlockScore> top;
  if (k == 0 || chunk_score_.empty()) return top;
  top.reserve(std::min(k, touched_) + 1);
  const auto ranks_above = [](double score, std::size_t b, const BlockScore& entry) {
    return score > entry.score || (score == entry.score && b < entry.block);
  };
  // Once the list is full, a block is skipped when its key is below the
  // last entry's by a 1e-9 margin: a11^2 * n_last < lim * n, with
  // lim = a11_last^2 * (1 - 1e-9). The margin dwarfs the ~4 ulp of
  // rounding in either score, so a skipped block scores strictly below
  // the last entry and could never enter. Since n >= a11, the key is at
  // most a11, so a11 < min_a11 (the margined key, rounded down) already
  // rules a block out on one integer compare, before a10 is read. While
  // the last entry scores above 0, min_a11 is at least 1: a zero-score
  // block cannot rank above it. A zero-score last entry can still be
  // passed by a zero-score block of a lower id, which the scan meets
  // after the seed chunk (below).
  double lim = 0.0;
  double n_last = 0.0;
  std::uint32_t min_a11 = 0;
  // Counts of the last block turned away: equal counts give an equal
  // score, which a block scanned after it (a higher id) cannot rank
  // above. Untouched blocks (counts (0, 0)) are never ranked.
  std::uint32_t rej_a11 = 0;
  std::uint32_t rej_a10 = 0;
  bool full = false;
  const std::size_t span = a11_.size();
  // Every block of chunk c scores at most its bound and has an id of at
  // least c * kChunk.
  const auto passed_over = [&](std::size_t c) {
    return full && !ranks_above(chunk_score_[c], c * kChunk, top.back());
  };
  const auto scan = [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(begin + kChunk, span);
    // The tests below, on the whole chunk in one branch-free pass the
    // compiler vectorizes: a chunk none of whose blocks passes them (a
    // common pool, a run of counts tied with the last entry) is passed
    // over without a per-block branch. (lim = n_last = 0 until the list
    // is full, which makes the key test pass every block.)
    const std::uint32_t* a11s = a11_.data();
    const std::uint32_t* a10s = a10_.data();
    std::uint32_t candidates = 0;
    for (std::size_t b = begin; b < end; ++b) {
      const double x = a11s[b];
      const double n = x + static_cast<double>(a10s[b]);
      candidates += static_cast<std::uint32_t>(a11s[b] >= min_a11) &
                    static_cast<std::uint32_t>(!(x * x * n_last < lim * n)) &
                    static_cast<std::uint32_t>(n != 0.0) &
                    (static_cast<std::uint32_t>(a11s[b] != rej_a11) |
                     static_cast<std::uint32_t>(a10s[b] != rej_a10));
    }
    double best = 0.0;
    for (std::size_t b = candidates == 0 ? end : begin; b < end; ++b) {
      const std::uint32_t a11 = a11s[b];
      if (a11 < min_a11) continue;
      const std::uint32_t a10 = a10s[b];
      if ((a11 == rej_a11 && a10 == rej_a10) || (a11 | a10) == 0) continue;
      if (full) {
        const double n = static_cast<double>(a11) + static_cast<double>(a10);
        const double key = static_cast<double>(a11) * static_cast<double>(a11);
        if (key * n_last < lim * n) {
          rej_a11 = a11;
          rej_a10 = a10;
          continue;
        }
      }
      const double score = similarity(Coefficient::kOchiai, counts(b));
      best = std::max(best, score);
      if (full && !ranks_above(score, b, top.back())) {
        rej_a11 = a11;
        rej_a10 = a10;
        continue;
      }
      auto at = top.end();
      while (at != top.begin() && ranks_above(score, b, *std::prev(at))) --at;
      top.insert(at, BlockScore{b, score});
      if (top.size() > k) top.pop_back();
      full = top.size() == k;
      if (full) {
        const std::size_t last = top.back().block;
        const double last_a11 = a11s[last];
        lim = last_a11 * last_a11 * (1.0 - 1e-9);
        n_last = last_a11 + static_cast<double>(a10s[last]);
        min_a11 = top.back().score > 0.0
                      ? std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::floor(
                                                       lim / n_last * (1.0 - 1e-9))))
                      : 0;
      }
    }
    // Every block passed over is untouched or scores at most the last
    // entry, whose score only rises as the scan goes on.
    chunk_score_[c] = full ? std::max(best, top.back().score) : best;
  };
  // Scan the chunk with the highest known bound first: the list then
  // starts near its final last entry, and the scan in id order passes
  // most chunks over on their bound alone.
  std::size_t seed = 0;
  double seed_bound = -1.0;
  for (std::size_t c = 0; c < chunk_score_.size(); ++c) {
    if (chunk_score_[c] > seed_bound && chunk_score_[c] != kUnknownBound) {
      seed = c;
      seed_bound = chunk_score_[c];
    }
  }
  scan(seed);
  // A block turned away in the seed chunk has a higher id than the
  // blocks scanned next.
  rej_a11 = 0;
  rej_a10 = 0;
  for (std::size_t c = 0; c < chunk_score_.size(); ++c) {
    if (c != seed && !passed_over(c)) scan(c);
  }
  return top;
}

void IncrementalSflCounts::merge(const IncrementalSflCounts& other) {
  if (!other.a11_.empty()) ensure_span(static_cast<std::uint32_t>(other.a11_.size() - 1));
  for (std::size_t b = 0; b < other.a11_.size(); ++b) {
    const std::uint32_t add = other.a11_[b] + other.a10_[b];
    if (add == 0) continue;
    if (a11_[b] + a10_[b] == 0) ++touched_;
    a11_[b] += other.a11_[b];
    a10_[b] += other.a10_[b];
  }
  error_steps_ += other.error_steps_;
  pass_steps_ += other.pass_steps_;
  std::fill(chunk_score_.begin(), chunk_score_.end(), kUnknownBound);
}

void IncrementalSflCounts::clear() {
  a11_.clear();
  a10_.clear();
  chunk_score_.clear();
  error_steps_ = 0;
  pass_steps_ = 0;
  touched_ = 0;
}

void IncrementalSflCounts::save(journal::Encoder& out) const {
  out.u32(static_cast<std::uint32_t>(a11_.size()));
  for (const std::uint32_t v : a11_) out.u32(v);
  for (const std::uint32_t v : a10_) out.u32(v);
  out.u64(error_steps_);
  out.u64(pass_steps_);
}

bool IncrementalSflCounts::load(journal::Decoder& in) {
  clear();
  const std::uint32_t span = in.u32();
  // The span is checksum-protected upstream, but bound it anyway so a
  // logic bug can never turn into a multi-gigabyte allocation.
  if (!in.ok() || in.remaining() < static_cast<std::size_t>(span) * 8) {
    in.fail();
    return false;
  }
  a11_.resize(span, 0);
  a10_.resize(span, 0);
  chunk_score_.assign((a11_.size() + kChunk - 1) / kChunk, kUnknownBound);
  for (std::uint32_t b = 0; b < span; ++b) a11_[b] = in.u32();
  for (std::uint32_t b = 0; b < span; ++b) a10_[b] = in.u32();
  error_steps_ = in.u64();
  pass_steps_ = in.u64();
  // No block can have run in more steps than were accounted: top_k()'s
  // shared-F ordering and counts()' derived a01/a00 both rely on it.
  bool consistent = in.ok() && error_steps_ <= UINT32_MAX && pass_steps_ <= UINT32_MAX;
  touched_ = 0;
  for (std::size_t b = 0; consistent && b < a11_.size(); ++b) {
    consistent = a11_[b] <= error_steps_ && a10_[b] <= pass_steps_;
    if (a11_[b] + a10_[b] > 0) ++touched_;
  }
  if (!consistent) {
    clear();
    in.fail();
    return false;
  }
  return true;
}

}  // namespace trader::diagnosis
