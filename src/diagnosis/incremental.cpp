#include "diagnosis/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace trader::diagnosis {

void IncrementalSflCounts::ensure_span(std::uint32_t max_block) {
  if (max_block >= a11_.size()) {
    a11_.resize(max_block + 1, 0);
    a10_.resize(max_block + 1, 0);
  }
}

void IncrementalSflCounts::add(const std::vector<std::uint32_t>& blocks, bool error) {
  if (!blocks.empty()) ensure_span(blocks.back());
  for (const std::uint32_t b : blocks) {
    ensure_span(b);  // tolerate unsorted input (sorted input resizes once)
    if (a11_[b] + a10_[b] == 0) ++touched_;
    if (error) {
      ++a11_[b];
    } else {
      ++a10_[b];
    }
  }
  if (error) {
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
  // (n = a11 + a10) orders blocks by the exact key a11^2 / n. Blocks
  // arrive in ascending id order, so a candidate enters the full list
  // only by scoring strictly above its last entry. `top` holds the
  // entries sorted by (score descending, block ascending) — the order
  // stable_sort gives report() — and at most k + 1 of them.
  std::vector<BlockScore> top;
  if (k == 0) return top;
  top.reserve(std::min(k, touched_) + 1);
  // Once the list is full, a block is skipped when its key is below the
  // last entry's by a 1e-9 margin: a11^2 * n_last < lim * n, with
  // lim = a11_last^2 * (1 - 1e-9). The margin dwarfs the ~4 ulp of
  // rounding in either score, so a skipped block scores strictly below
  // the last entry and could never enter. Since n >= a11, the key is at
  // most a11, so a11 < min_a11 (the margined key, rounded down) already
  // rules a block out on one integer compare, before a10 is read.
  double lim = 0.0;
  double n_last = 0.0;
  std::uint32_t min_a11 = 0;
  // Counts of the last block turned away: equal counts give an equal
  // score, which a later id cannot beat. Starting at (0, 0) makes the
  // same test skip untouched blocks while the list fills; once it is
  // full, min_a11 >= 1 does.
  std::uint32_t rej_a11 = 0;
  std::uint32_t rej_a10 = 0;
  bool full = false;
  const std::size_t span = a11_.size();
  for (std::size_t b = 0; b < span; ++b) {
    const std::uint32_t a11 = a11_[b];
    if (a11 < min_a11) continue;
    const std::uint32_t a10 = a10_[b];
    if (a11 == rej_a11 && a10 == rej_a10) continue;
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
    if (full && !(score > top.back().score)) {
      rej_a11 = a11;
      rej_a10 = a10;
      continue;
    }
    auto at = top.end();
    while (at != top.begin() && std::prev(at)->score < score) --at;
    top.insert(at, BlockScore{b, score});
    if (top.size() > k) top.pop_back();
    full = top.size() == k;
    if (full) {
      const std::size_t last = top.back().block;
      const double last_a11 = a11_[last];
      lim = last_a11 * last_a11 * (1.0 - 1e-9);
      n_last = last_a11 + static_cast<double>(a10_[last]);
      // At least 1: a zero-score block cannot enter a full list either.
      min_a11 = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::floor(lim / n_last * (1.0 - 1e-9))));
    }
  }
  return top;
}

void IncrementalSflCounts::merge(const IncrementalSflCounts& other) {
  if (other.a11_.size() > a11_.size()) {
    a11_.resize(other.a11_.size(), 0);
    a10_.resize(other.a10_.size(), 0);
  }
  for (std::size_t b = 0; b < other.a11_.size(); ++b) {
    const std::uint32_t add = other.a11_[b] + other.a10_[b];
    if (add == 0) continue;
    if (a11_[b] + a10_[b] == 0) ++touched_;
    a11_[b] += other.a11_[b];
    a10_[b] += other.a10_[b];
  }
  error_steps_ += other.error_steps_;
  pass_steps_ += other.pass_steps_;
}

void IncrementalSflCounts::clear() {
  a11_.clear();
  a10_.clear();
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
