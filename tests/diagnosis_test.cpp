// Tests for spectrum-based fault localization (§4.4): similarity
// coefficients, ranking metrics, the synthetic 60k-block program, and
// the headline property — the faulty block ranks first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "diagnosis/spectrum.hpp"
#include "diagnosis/synthetic_program.hpp"
#include "observation/coverage.hpp"
#include "tv/control.hpp"
#include "tv/keys.hpp"
#include "tv/signal.hpp"

namespace diag = trader::diagnosis;
namespace obs = trader::observation;
namespace tv = trader::tv;
namespace rt = trader::runtime;

// -------------------------------------------------------------- Coefficients

TEST(Similarity, OchiaiHandComputed) {
  // a11=4, a01=1, a10=2: 4 / sqrt(5*6) = 0.7303...
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kOchiai, k), 4.0 / std::sqrt(30.0), 1e-12);
}

TEST(Similarity, TarantulaHandComputed) {
  // fail=5 (a11=4,a01=1), pass=12 (a10=2,a00=10): f=0.8, p=1/6.
  diag::SflCounts k{4, 2, 1, 10};
  const double f = 0.8;
  const double p = 2.0 / 12.0;
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kTarantula, k), f / (f + p), 1e-12);
}

TEST(Similarity, JaccardHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kJaccard, k), 4.0 / 7.0, 1e-12);
}

TEST(Similarity, AmpleHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kAmple, k), std::abs(0.8 - 2.0 / 12.0), 1e-12);
}

TEST(Similarity, SimpleMatchingHandComputed) {
  diag::SflCounts k{4, 2, 1, 10};
  EXPECT_NEAR(diag::similarity(diag::Coefficient::kSimpleMatching, k), 14.0 / 17.0, 1e-12);
}

TEST(Similarity, ZeroDenominatorsAreSafe) {
  diag::SflCounts zero{};
  for (auto c : diag::all_coefficients()) {
    EXPECT_EQ(diag::similarity(c, zero), 0.0) << diag::to_string(c);
  }
}

TEST(Similarity, PerfectCorrelationMaximizesOchiai) {
  // Block executed exactly in the error steps.
  diag::SflCounts k{5, 0, 0, 10};
  EXPECT_DOUBLE_EQ(diag::similarity(diag::Coefficient::kOchiai, k), 1.0);
}

TEST(Similarity, CoefficientNames) {
  EXPECT_STREQ(diag::to_string(diag::Coefficient::kOchiai), "ochiai");
  EXPECT_EQ(diag::all_coefficients().size(), 5u);
}

// ------------------------------------------------------------------- Coverage

TEST(Coverage, RecordsPerStepHits) {
  obs::BlockCoverageRecorder cov(10);
  cov.hit(1);
  cov.hit(1);  // dedup within step
  cov.hit(3);
  cov.end_step();
  cov.hit(3);
  cov.end_step();
  EXPECT_EQ(cov.step_count(), 2u);
  EXPECT_TRUE(cov.executed(0, 1));
  EXPECT_TRUE(cov.executed(0, 3));
  EXPECT_FALSE(cov.executed(0, 2));
  EXPECT_FALSE(cov.executed(1, 1));
  EXPECT_EQ(cov.blocks_in_step(0), 2u);
  EXPECT_EQ(cov.blocks_touched(), 2u);
  EXPECT_EQ(cov.raw_hits(), 4u);
}

TEST(Coverage, OutOfRangeHitIgnored) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(99);
  cov.end_step();
  EXPECT_EQ(cov.blocks_in_step(0), 0u);
}

TEST(Coverage, ClearResets) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(0);
  cov.end_step();
  cov.clear();
  EXPECT_EQ(cov.step_count(), 0u);
  EXPECT_EQ(cov.raw_hits(), 0u);
}

TEST(Coverage, RefusesUniversesPastThirtyTwoBitIds) {
  if (sizeof(std::size_t) <= 4) GTEST_SKIP() << "size_t cannot exceed UINT32_MAX";
  EXPECT_THROW(obs::BlockCoverageRecorder(std::size_t{UINT32_MAX} + 1), std::invalid_argument);
}

TEST(CoverageProperty, RangeAndMaskMatchPerBlockHits) {
  // hit_range / hit_mask against the per-block hit() loop they stand
  // for: ranges and masks straddling word boundaries, crossing the
  // universe end, empty or reversed, and overlapping earlier hits.
  for (const std::size_t blocks : {1u, 63u, 64u, 65u, 200u, 1001u}) {
    rt::Rng rng(blocks * 31 + 5);
    obs::BlockCoverageRecorder ref(blocks);
    obs::BlockCoverageRecorder fast(blocks);
    const auto pick = [&](std::size_t hi) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(hi)));
    };
    for (int op = 0; op < 3000; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 4) {
        const std::size_t begin = pick(blocks + 70);
        const std::size_t end = rng.bernoulli(0.1) ? pick(begin) : begin + pick(150);
        for (std::size_t b = begin; b < end; ++b) ref.hit(b);
        fast.hit_range(begin, end);
      } else if (kind < 8) {
        const std::size_t first = pick(blocks + 70);
        std::uint64_t bits = rng.next_u64();
        if (kind == 5) bits &= rng.next_u64() & rng.next_u64();  // sparse
        if (kind == 6) bits = rng.bernoulli(0.5) ? ~std::uint64_t{0} : 0;
        for (std::size_t i = 0; i < 64; ++i) {
          if ((bits >> i) & 1) ref.hit(first + i);
        }
        fast.hit_mask(first, bits);
      } else if (kind == 8) {
        const std::size_t b = pick(blocks + 5);
        ref.hit(b);
        fast.hit(b);
      } else if (rng.bernoulli(0.9)) {
        ref.end_step();
        fast.end_step();
        const std::size_t s = ref.step_count() - 1;
        ASSERT_EQ(fast.step_count(), ref.step_count());
        ASSERT_EQ(fast.blocks_in_step(s), ref.blocks_in_step(s));
        ASSERT_EQ(fast.matrix()[s], ref.matrix()[s]) << "blocks " << blocks << " op " << op;
      } else {
        ref.clear();
        fast.clear();
      }
      ASSERT_EQ(fast.current_touched(), ref.current_touched())
          << "blocks " << blocks << " op " << op;
      ASSERT_EQ(fast.raw_hits(), ref.raw_hits());
      const auto& touched = ref.current_touched();
      ASSERT_EQ(ref.touched_ascending(), std::is_sorted(touched.begin(), touched.end()));
      ASSERT_EQ(fast.touched_ascending(), ref.touched_ascending());
    }
    EXPECT_EQ(fast.matrix(), ref.matrix());
    EXPECT_EQ(fast.blocks_touched(), ref.blocks_touched());
  }
}

// --------------------------------------------------------------------- Ranker

TEST(Ranker, CountsForMatchManualTally) {
  obs::BlockCoverageRecorder cov(3);
  // step 0: blocks {0,1}, error; step 1: {1}, pass; step 2: {0}, error.
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(1);
  cov.end_step();
  cov.hit(0);
  cov.end_step();
  const std::vector<bool> errors{true, false, true};
  const auto k0 = diag::SflRanker::counts_for(cov, errors, 0);
  EXPECT_EQ(k0.a11, 2u);
  EXPECT_EQ(k0.a10, 0u);
  EXPECT_EQ(k0.a01, 0u);
  EXPECT_EQ(k0.a00, 1u);
  const auto k1 = diag::SflRanker::counts_for(cov, errors, 1);
  EXPECT_EQ(k1.a11, 1u);
  EXPECT_EQ(k1.a10, 1u);
}

TEST(Ranker, FaultyBlockRanksFirstInToyProgram) {
  obs::BlockCoverageRecorder cov(3);
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(1);
  cov.end_step();
  cov.hit(0);
  cov.end_step();
  const std::vector<bool> errors{true, false, true};
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors);
  EXPECT_EQ(report.ranking[0].block, 0u);
  EXPECT_EQ(report.rank_of(0), 1u);
  EXPECT_GT(report.rank_of(1), 1u);
}

TEST(Ranker, UnexecutedBlocksExcluded) {
  obs::BlockCoverageRecorder cov(100);
  cov.hit(5);
  cov.end_step();
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, {true});
  EXPECT_EQ(report.blocks_considered, 1u);
  EXPECT_EQ(report.rank_of(42), 2u);  // beyond the ranking
}

TEST(Ranker, MismatchedErrorVectorThrows) {
  obs::BlockCoverageRecorder cov(4);
  cov.hit(0);
  cov.end_step();
  diag::SflRanker ranker;
  EXPECT_THROW(ranker.rank(cov, {true, false}), std::invalid_argument);
}

TEST(Ranker, TieMetrics) {
  obs::BlockCoverageRecorder cov(3);
  // Blocks 0 and 1 always co-occur -> tied scores; block 2 only passes.
  cov.hit(0);
  cov.hit(1);
  cov.end_step();
  cov.hit(2);
  cov.end_step();
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, {true, false});
  EXPECT_EQ(report.rank_of(0), 1u);        // optimistic
  EXPECT_EQ(report.worst_rank_of(0), 2u);  // pessimistic (tied with 1)
  EXPECT_NEAR(report.wasted_effort(0), (1.5 - 1.0) / 3.0, 1e-12);
}

// ---------------------------------------------------------- SyntheticProgram

TEST(Synthetic, StructureAddsUp) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  EXPECT_EQ(prog.block_count(), 1000u);
  EXPECT_LT(prog.common_end(), prog.shared_end());
  EXPECT_LE(prog.feature_end(9), 1000u);
  EXPECT_EQ(prog.feature_of(prog.feature_begin(3)), 3u);
  EXPECT_EQ(prog.feature_of(0), static_cast<std::size_t>(-1));  // common block
}

TEST(Synthetic, InvalidConfigsThrow) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 10;
  cfg.feature_count = 0;
  EXPECT_THROW(diag::SyntheticProgram{cfg}, std::invalid_argument);
  cfg.feature_count = 100;
  EXPECT_THROW(diag::SyntheticProgram{cfg}, std::invalid_argument);
}

TEST(Synthetic, FaultPlacementByFeature) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  prog.set_fault_in_feature(4, 10);
  EXPECT_EQ(prog.feature_of(prog.fault_block()), 4u);
  EXPECT_THROW(prog.set_fault_in_feature(99), std::out_of_range);
  EXPECT_THROW(prog.set_fault_block(99999), std::out_of_range);
}

TEST(Synthetic, StepsTouchCommonAndFeatureBlocks) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  obs::BlockCoverageRecorder cov(prog.block_count());
  prog.run_step(2, cov);
  cov.end_step();
  // All common blocks executed.
  for (std::size_t b = prog.common_begin(); b < prog.common_end(); ++b) {
    EXPECT_TRUE(cov.executed(0, b));
  }
  // A prefix of feature 2 executed; feature 5 untouched.
  EXPECT_TRUE(cov.executed(0, prog.feature_begin(2)));
  bool any_f5 = false;
  for (std::size_t b = prog.feature_begin(5); b < prog.feature_end(5); ++b) {
    any_f5 |= cov.executed(0, b);
  }
  EXPECT_FALSE(any_f5);
}

TEST(Synthetic, ErrorOnlyWhenFaultExecutes) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 1000;
  cfg.feature_count = 10;
  diag::SyntheticProgram prog(cfg);
  prog.set_fault_in_feature(3, 0);  // shallow: always hit when feature 3 runs
  obs::BlockCoverageRecorder cov(prog.block_count());
  EXPECT_FALSE(prog.run_step(1, cov));
  cov.end_step();
  EXPECT_TRUE(prog.run_step(3, cov));
  cov.end_step();
}

// The headline reproduction property (E2, scaled down for test speed):
// for a scenario exercising several features with one injected fault,
// Ochiai ranks the faulty block first.
class SflHeadline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SflHeadline, FaultyBlockRanksFirst) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 6000;
  cfg.feature_count = 12;
  cfg.seed = GetParam();
  diag::SyntheticProgram prog(cfg);
  // Fault at 80% depth of the teletext-like feature: executed on deep
  // activations only, giving both erroneous and passing activations.
  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  prog.set_fault_in_feature(2, static_cast<std::size_t>(per_feature * 0.8));

  obs::BlockCoverageRecorder cov(prog.block_count());
  // 27-step scenario alternating several features with feature 2 often.
  const std::vector<std::size_t> scenario = {0, 2, 1, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2,
                                             8, 2, 9, 2, 0, 2, 1, 2, 3, 2, 4, 2, 5};
  const auto errors = prog.run_scenario(scenario, cov);
  // The fault must have manifested at least once and not on every step.
  int error_steps = 0;
  for (bool e : errors) error_steps += e ? 1 : 0;
  ASSERT_GT(error_steps, 0) << "fault never executed for seed " << GetParam();
  ASSERT_LT(error_steps, static_cast<int>(errors.size()));

  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_EQ(report.rank_of(prog.fault_block()), 1u) << "seed " << GetParam();
  // Blocks whose spectra are identical to the fault's tie with it; even
  // pessimistically the inspection effort must stay negligible.
  EXPECT_LT(report.wasted_effort(prog.fault_block()), 0.02) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SflHeadline, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Sfl, IntermittentManifestationStillRanksHigh) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = 4000;
  cfg.feature_count = 8;
  cfg.fault_manifestation = 0.7;
  cfg.seed = 99;
  diag::SyntheticProgram prog(cfg);
  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  prog.set_fault_in_feature(1, static_cast<std::size_t>(per_feature * 0.75));
  obs::BlockCoverageRecorder cov(prog.block_count());
  std::vector<std::size_t> scenario;
  for (int i = 0; i < 40; ++i) scenario.push_back(static_cast<std::size_t>(i % 8));
  const auto errors = prog.run_scenario(scenario, cov);
  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_LE(report.rank_of(prog.fault_block()), 20u);
}

// ----------------------------------------------- SFL on the real TV control

TEST(Sfl, LocalizesFaultyHandlerInTvControl) {
  // Instrument the real control unit's blocks; declare steps erroneous
  // exactly when the (deliberately miswired) teletext handler ran. The
  // teletext-enter block must rank at the top.
  auto lineup = tv::ChannelLineup::standard_lineup(40);
  tv::TvControl control(lineup);
  obs::BlockCoverageRecorder cov(tv::kControlBlockCount);
  bool ttx_ran = false;
  control.set_block_hook([&](int b) {
    cov.hit(static_cast<std::size_t>(b));
    if (b == tv::kBlkTtxEnter) ttx_ran = true;
  });

  std::vector<bool> errors;
  const std::vector<tv::Key> scenario = {
      tv::Key::kPower,    tv::Key::kVolumeUp, tv::Key::kChannelUp, tv::Key::kTeletext,
      tv::Key::kTeletext, tv::Key::kMute,     tv::Key::kTeletext,  tv::Key::kBack,
      tv::Key::kVolumeDown, tv::Key::kTeletext, tv::Key::kTeletext, tv::Key::kChannelDown,
  };
  rt::SimTime now = 0;
  for (const auto key : scenario) {
    ttx_ran = false;
    control.handle_key(key, now);
    now += 2'000'000;
    cov.end_step();
    errors.push_back(ttx_ran);  // "failure whenever the buggy handler ran"
  }

  diag::SflRanker ranker;
  const auto report = ranker.rank(cov, errors, diag::Coefficient::kOchiai);
  EXPECT_EQ(report.rank_of(tv::kBlkTtxEnter), 1u);
}

// ====================================================== incremental SFL

#include "diagnosis/incremental.hpp"

namespace {

/// Random spectra: `steps` steps over `blocks` blocks, error bias ~30%.
std::vector<std::pair<std::vector<std::uint32_t>, bool>> random_spectra(
    rt::Rng& rng, std::size_t steps, std::uint32_t blocks) {
  std::vector<std::pair<std::vector<std::uint32_t>, bool>> out;
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      if (rng.uniform(0.0, 1.0) < 0.35) ids.push_back(b);
    }
    out.emplace_back(std::move(ids), rng.uniform(0.0, 1.0) < 0.3);
  }
  return out;
}

}  // namespace

TEST(Incremental, CountsMatchBatchRecorder) {
  // Feed the identical spectra both ways: through a BlockCoverageRecorder
  // + SflRanker::counts_for (the offline batch path) and through
  // IncrementalSflCounts::add (the online path). Every per-block
  // contingency table must agree exactly.
  rt::Rng rng(71);
  const std::uint32_t kBlocks = 24;
  const auto spectra = random_spectra(rng, 40, kBlocks);

  obs::BlockCoverageRecorder cov(kBlocks);
  std::vector<bool> errors;
  diag::IncrementalSflCounts acc;
  for (const auto& [ids, err] : spectra) {
    for (const auto b : ids) cov.hit(b);
    cov.end_step();
    errors.push_back(err);
    acc.add(ids, err);
  }

  EXPECT_EQ(acc.steps(), spectra.size());
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    const auto batch = diag::SflRanker::counts_for(cov, errors, b);
    const auto online = acc.counts(b);
    EXPECT_EQ(online.a11, batch.a11) << "block " << b;
    EXPECT_EQ(online.a10, batch.a10) << "block " << b;
    EXPECT_EQ(online.a01, batch.a01) << "block " << b;
    EXPECT_EQ(online.a00, batch.a00) << "block " << b;
  }
}

TEST(Incremental, ReportBitIdenticalToBatchRanker) {
  // The headline online/offline equivalence: after ANY prefix of the
  // stream, IncrementalSflCounts::report() must equal SflRanker::rank()
  // over the same prefix — same blocks, same (double) scores, same
  // order. Checked across every coefficient.
  rt::Rng rng(72);
  const std::uint32_t kBlocks = 18;
  const auto spectra = random_spectra(rng, 25, kBlocks);

  for (const auto coefficient : diag::all_coefficients()) {
    obs::BlockCoverageRecorder cov(kBlocks);
    std::vector<bool> errors;
    diag::IncrementalSflCounts acc;
    for (const auto& [ids, err] : spectra) {
      for (const auto b : ids) cov.hit(b);
      cov.end_step();
      errors.push_back(err);
      acc.add(ids, err);

      const auto offline = diag::SflRanker().rank(cov, errors, coefficient);
      const auto online = acc.report(coefficient);
      ASSERT_EQ(online.blocks_considered, offline.blocks_considered);
      ASSERT_EQ(online.ranking.size(), offline.ranking.size());
      for (std::size_t i = 0; i < online.ranking.size(); ++i) {
        EXPECT_EQ(online.ranking[i].block, offline.ranking[i].block)
            << "prefix " << errors.size() << " rank " << i;
        EXPECT_EQ(online.ranking[i].score, offline.ranking[i].score)  // bit-identical
            << "prefix " << errors.size() << " rank " << i;
      }
    }
  }
}

namespace {

/// top_k(k) must be the first k entries of report(kOchiai).ranking:
/// the same blocks and bit-identical scores.
::testing::AssertionResult top_k_is_report_prefix(const diag::IncrementalSflCounts& acc,
                                                  std::size_t k) {
  const auto full = acc.report(diag::Coefficient::kOchiai);
  const auto top = acc.top_k(k);
  const std::size_t want = std::min(k, full.ranking.size());
  if (top.size() != want) {
    return ::testing::AssertionFailure() << "k=" << k << ": size " << top.size() << " != " << want;
  }
  for (std::size_t i = 0; i < want; ++i) {
    if (top[i].block != full.ranking[i].block || top[i].score != full.ranking[i].score) {
      return ::testing::AssertionFailure()
             << "k=" << k << " i=" << i << ": block " << top[i].block << " score "
             << top[i].score << " != block " << full.ranking[i].block << " score "
             << full.ranking[i].score;
    }
  }
  return ::testing::AssertionSuccess();
}

using CountPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// An accumulator with exactly the given per-block (a11, a10) counts
/// over `error_steps` failing and `pass_steps` passing steps: failing
/// step s executes every block with a11 > s, passing step s every block
/// with a10 > s.
diag::IncrementalSflCounts with_counts(const CountPairs& counts, std::uint32_t error_steps,
                                       std::uint32_t pass_steps) {
  diag::IncrementalSflCounts acc;
  for (std::uint32_t s = 0; s < error_steps + pass_steps; ++s) {
    const bool error = s < error_steps;
    const std::uint32_t depth = error ? s : s - error_steps;
    std::vector<std::uint32_t> ids;
    for (std::uint32_t b = 0; b < counts.size(); ++b) {
      if ((error ? counts[b].first : counts[b].second) > depth) ids.push_back(b);
    }
    acc.add(ids, error);
  }
  return acc;
}

/// Seeded per-block counts with heavy ties, in one of three modes:
/// uniform counts; pairs whose exact Ochiai keys a11^2 / (a11 + a10)
/// coincide, such as (1,0), (2,2), (3,6), (4,12) (key 1) or (1,1),
/// (2,6), (3,15) (key 1/2); long runs of identical counts.
CountPairs tied_counts(rt::Rng& rng, std::uint32_t error_steps, std::uint32_t pass_steps) {
  static const CountPairs kTieFamilies = {{1, 0}, {2, 2}, {3, 6}, {4, 12}, {1, 1}, {2, 6},
                                          {3, 15}, {0, 1}, {0, 0}, {2, 0}, {4, 4}};
  const auto draw = [&](bool tied) {
    for (;;) {
      const auto pair =
          tied ? kTieFamilies[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(kTieFamilies.size()) - 1))]
               : std::pair<std::uint32_t, std::uint32_t>{
                     static_cast<std::uint32_t>(rng.uniform_int(0, error_steps)),
                     static_cast<std::uint32_t>(rng.uniform_int(0, pass_steps))};
      if (pair.first <= error_steps && pair.second <= pass_steps) return pair;
    }
  };
  // Up to a few 64-id chunks of top_k's pruned scan, with tails.
  const auto span = static_cast<std::size_t>(rng.uniform_int(1, 200));
  const std::int64_t mode = rng.uniform_int(0, 2);
  CountPairs counts;
  while (counts.size() < span) {
    const auto pair = draw(mode != 0);
    const auto run = mode == 2 ? static_cast<std::size_t>(rng.uniform_int(1, 24)) : 1;
    for (std::size_t i = 0; i < run && counts.size() < span; ++i) counts.push_back(pair);
  }
  return counts;
}

}  // namespace

TEST(Incremental, TopKMatchesFullReportPrefix) {
  rt::Rng rng(73);
  diag::IncrementalSflCounts acc;
  for (const auto& [ids, err] : random_spectra(rng, 30, 40)) acc.add(ids, err);
  for (const std::size_t k : {1u, 3u, 7u, 40u, 100u}) {
    EXPECT_TRUE(top_k_is_report_prefix(acc, k));
  }

  // Seeded sweep of the pruned scan against the full sort: equal exact
  // keys from different counts, long runs of equal counts, no failing
  // step at all, and accumulators built by merge().
  constexpr int kAccumulators = 12000;
  for (int i = 0; i < kAccumulators; ++i) {
    const auto error_steps =
        rng.bernoulli(0.1) ? 0u : static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    const auto pass_steps = static_cast<std::uint32_t>(rng.uniform_int(0, 16));
    auto sweep = with_counts(tied_counts(rng, error_steps, pass_steps), error_steps, pass_steps);
    if (rng.bernoulli(0.25)) {
      const auto more_errors = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
      const auto more_passes = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
      sweep.merge(
          with_counts(tied_counts(rng, more_errors, more_passes), more_errors, more_passes));
    }
    const std::size_t touched = sweep.touched_blocks();
    const auto random_k =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(touched) + 3));
    for (const std::size_t k : {std::size_t{1}, touched, touched + 1, touched + 7, random_k}) {
      ASSERT_TRUE(top_k_is_report_prefix(sweep, k)) << "accumulator " << i;
    }
  }

  // One accumulator ranked after every step, so each call starts from
  // the chunk bounds the last one left: error bursts, long pass-only
  // runs (bounds that only went stale), ids beyond the current span,
  // then load(), merge() and clear(). Steps run contiguous id ranges,
  // as a feature's handler does, so runs of equal counts cross chunk
  // boundaries, plus a sparse sprinkle of single ids.
  rt::Rng live_rng(74);
  const auto spectrum = [&](std::uint32_t span) {
    std::vector<bool> hit(span, false);
    for (int r = 0; r < 3; ++r) {
      const auto from = static_cast<std::uint32_t>(live_rng.uniform_int(0, span - 1));
      const auto len = static_cast<std::uint32_t>(live_rng.uniform_int(1, 150));
      for (std::uint32_t b = from; b < span && b < from + len; ++b) hit[b] = true;
    }
    for (std::uint32_t b = 0; b < span; ++b) {
      if (live_rng.bernoulli(0.05)) hit[b] = true;
    }
    std::vector<std::uint32_t> ids;
    for (std::uint32_t b = 0; b < span; ++b) {
      if (hit[b]) ids.push_back(b);
    }
    return ids;
  };
  const auto run = [&](diag::IncrementalSflCounts& acc, int steps, double error_rate,
                       std::uint32_t span, const char* phase) {
    for (int s = 0; s < steps; ++s) {
      acc.add(spectrum(span), live_rng.bernoulli(error_rate));
      for (const std::size_t k : {1u, 10u, 64u, 65u, 300u}) {
        ASSERT_TRUE(top_k_is_report_prefix(acc, k)) << phase << " step " << s;
      }
    }
  };
  diag::IncrementalSflCounts live;
  run(live, 30, 0.3, 150, "mixed");
  run(live, 80, 0.0, 300, "pass-only, span grows past the old one");
  run(live, 10, 1.0, 400, "error burst, span grows");
  run(live, 80, 0.0, 400, "pass-only after the burst");

  trader::journal::Encoder enc;
  live.save(enc);
  diag::IncrementalSflCounts restored;
  trader::journal::Decoder dec(enc.buffer());
  ASSERT_TRUE(restored.load(dec));
  for (const std::size_t k : {1u, 10u, 64u, 65u, 300u}) {
    ASSERT_TRUE(top_k_is_report_prefix(restored, k)) << "after load()";
  }
  run(restored, 20, 0.0, 400, "pass-only after load()");

  diag::IncrementalSflCounts other;
  run(other, 20, 0.5, 700, "second stream");
  live.merge(other);
  for (const std::size_t k : {1u, 10u, 64u, 65u, 300u}) {
    ASSERT_TRUE(top_k_is_report_prefix(live, k)) << "after merge()";
  }
  run(live, 40, 0.0, 700, "pass-only after merge()");
  run(live, 10, 0.5, 700, "mixed after merge()");

  live.clear();
  EXPECT_TRUE(live.top_k(10).empty());
  run(live, 20, 0.0, 100, "pass-only after clear()");
  run(live, 20, 0.4, 250, "mixed after clear()");
}

TEST(Incremental, TopKMatchesReportPrefixOnSyntheticProgram) {
  // The hub's shape: a 60k-block program, four features, one fault.
  diag::SyntheticProgramConfig cfg;
  cfg.feature_count = 4;
  diag::SyntheticProgram prog(cfg);
  ASSERT_EQ(prog.block_count(), 60000u);
  prog.set_fault_in_feature(2, 40);
  obs::BlockCoverageRecorder cov(prog.block_count());
  rt::Rng rng(77);
  diag::IncrementalSflCounts acc;
  for (int step = 0; step < 40; ++step) {
    const bool error = prog.run_step(static_cast<std::size_t>(rng.uniform_int(0, 3)), cov);
    std::vector<std::uint32_t> ids(cov.current_touched().begin(), cov.current_touched().end());
    std::sort(ids.begin(), ids.end());
    cov.end_step();
    acc.add(ids, error);
    for (const std::size_t k : {1u, 10u, 100u}) {
      ASSERT_TRUE(top_k_is_report_prefix(acc, k)) << "step " << step;
    }
  }
  EXPECT_GT(acc.error_steps(), 0u);
  EXPECT_GT(acc.touched_blocks(), 10000u);
}

TEST(Incremental, LoadRejectsBlockCountsAboveStepTotals) {
  // Well-formed encodings of counts that add() could never produce: a
  // block executed in more failing (or passing) steps than there were.
  const auto encode = [](std::uint32_t a11, std::uint32_t a10) {
    trader::journal::Encoder enc;
    enc.u32(2);  // span
    enc.u32(a11);
    enc.u32(0);
    enc.u32(a10);
    enc.u32(1);
    enc.u64(2);  // error_steps
    enc.u64(1);  // pass_steps
    return enc;
  };
  diag::IncrementalSflCounts acc;
  const auto good = encode(2, 1);
  trader::journal::Decoder good_in(good.buffer());
  ASSERT_TRUE(acc.load(good_in));
  EXPECT_EQ(acc.steps(), 3u);
  EXPECT_EQ(acc.touched_blocks(), 2u);

  for (const auto& [a11, a10] : {std::pair{3u, 1u}, std::pair{2u, 2u}}) {
    const auto bad = encode(a11, a10);
    trader::journal::Decoder in(bad.buffer());
    EXPECT_FALSE(acc.load(in)) << "a11=" << a11 << " a10=" << a10;
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(acc.steps(), 0u);
    EXPECT_EQ(acc.block_span(), 0u);
    EXPECT_EQ(acc.touched_blocks(), 0u);
  }
}

TEST(Incremental, MergeEqualsConcatenatedStreams) {
  rt::Rng rng(75);
  const auto first = random_spectra(rng, 15, 20);
  const auto second = random_spectra(rng, 15, 20);

  diag::IncrementalSflCounts whole;
  for (const auto& [ids, err] : first) whole.add(ids, err);
  for (const auto& [ids, err] : second) whole.add(ids, err);

  diag::IncrementalSflCounts a;
  diag::IncrementalSflCounts b;
  for (const auto& [ids, err] : first) a.add(ids, err);
  for (const auto& [ids, err] : second) b.add(ids, err);
  a.merge(b);

  EXPECT_EQ(a.steps(), whole.steps());
  EXPECT_EQ(a.touched_blocks(), whole.touched_blocks());
  const auto ra = a.report(diag::Coefficient::kOchiai);
  const auto rb = whole.report(diag::Coefficient::kOchiai);
  ASSERT_EQ(ra.ranking.size(), rb.ranking.size());
  for (std::size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].block, rb.ranking[i].block);
    EXPECT_EQ(ra.ranking[i].score, rb.ranking[i].score);
  }
}

// ============================================== SUO stand-in step stream

#include "fleetdiag/reporter.hpp"
#include "runtime/fnv.hpp"

namespace {

struct StreamDigest {
  trader::runtime::Fnv1a64 h;
  std::size_t steps = 0;
  std::size_t errors = 0;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h.byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Drive one SyntheticProgram through `steps` steps and fold everything
/// a consumer can observe: error flags, the open step's touched ids in
/// order, raw_hits, and either the closed steps (blocks_in_step,
/// matrix() rows, sampled executed() bits) or, through the reporter
/// path, the flushed kSpectrum spectra. The fault moves across the
/// common, shared and feature ranges mid-run, and every third step
/// starts with hits already in the open step (one out of range).
void fold_stream(StreamDigest& d, std::size_t blocks, std::size_t features, double manifestation,
                 bool via_reporter) {
  diag::SyntheticProgramConfig cfg;
  cfg.total_blocks = blocks;
  cfg.feature_count = features;
  cfg.fault_manifestation = manifestation;
  cfg.seed = 1000003ULL * blocks + 101ULL * features + (manifestation < 1.0 ? 7 : 0);
  diag::SyntheticProgram prog(cfg);
  prog.set_fault_in_feature(features / 2, 3);
  obs::BlockCoverageRecorder cov(prog.block_count());
  trader::fleetdiag::ReporterConfig rc;
  rc.block_count = static_cast<std::uint32_t>(prog.block_count());
  rc.flush_steps = 4;
  trader::fleetdiag::SpectrumReporter reporter(rc);
  std::uint32_t seq = 0;
  const auto fold_frames = [&] {
    for (const auto& frame : reporter.flush(seq, 0)) {
      for (const auto& step : frame.spectra) {
        d.fold(step.error ? 1 : 0);
        d.fold(step.blocks.size());
        for (const std::uint32_t b : step.blocks) d.fold(b);
      }
    }
  };

  const std::size_t per_feature = prog.feature_end(0) - prog.feature_begin(0);
  const std::size_t steps = blocks >= 60000 ? 12 : 32;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t feature = (s * 5 + 1) % features;
    if (s == steps / 4) {
      const std::size_t pool = prog.shared_end() - prog.shared_begin();
      prog.set_fault_block(prog.shared_begin() + (s * 37) % pool);
    } else if (s == steps / 2) {
      prog.set_fault_block(prog.common_end() - 1);
    } else if (s == 3 * steps / 4) {
      prog.set_fault_block(prog.feature_begin(feature) + per_feature * 4 / 5);
    }
    if (s % 3 == 1) {
      cov.hit(s % prog.common_end());
      cov.hit(prog.feature_begin((feature + 1) % features) + s % per_feature);
      cov.hit(prog.block_count() + s);
    }
    const bool err = prog.run_step(feature, cov);
    ++d.steps;
    d.errors += err ? 1 : 0;
    d.fold(err ? 1 : 0);
    d.fold(cov.current_touched().size());
    for (const std::size_t b : cov.current_touched()) d.fold(b);
    d.fold(cov.raw_hits());
    if (via_reporter) {
      reporter.end_step_from(cov, err);
      cov.clear();
      d.fold(cov.raw_hits());
      if (reporter.flush_due()) fold_frames();
      continue;
    }
    cov.end_step();
    d.fold(cov.blocks_in_step(s));
    const auto& row = cov.matrix()[s];
    d.fold(row.size());
    for (std::size_t b = 0; b < row.size(); ++b) {
      if (row[b]) d.fold(b);
    }
    for (const std::size_t b : {std::size_t{0}, prog.common_end() - 1, prog.shared_begin(),
                                prog.shared_end() - 1, prog.shared_end(), prog.fault_block(),
                                prog.block_count() - 1, (s * 7919) % prog.block_count()}) {
      d.fold(cov.executed(s, b) ? 1 : 0);
    }
  }
  if (via_reporter) {
    fold_frames();
    d.fold(reporter.steps_reported());
  } else {
    d.fold(cov.step_count());
    d.fold(cov.blocks_touched());
  }
}

}  // namespace

TEST(SuoStream, GoldenDigestOverShapesAndPaths) {
  // Pinned from the per-block hit() implementation: a faster step must
  // produce exactly the same coverage, error flags and RNG stream.
  StreamDigest d;
  for (const std::size_t blocks : {60000u, 5000u, 1001u, 333u}) {
    for (const std::size_t features : {1u, 3u, 4u, 7u, 24u}) {
      for (const double manifestation : {0.5, 1.0}) {
        for (const bool via_reporter : {false, true}) {
          fold_stream(d, blocks, features, manifestation, via_reporter);
        }
      }
    }
  }
  EXPECT_GT(d.errors, d.steps / 20);
  EXPECT_LT(d.errors, d.steps / 2);
  EXPECT_EQ(d.h.value(), 0x422e0c076d3dedacULL) << std::hex << d.h.value();
}
