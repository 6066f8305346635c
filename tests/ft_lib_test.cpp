// Tests for the reusable fault-tolerance library (§4.5), the teletext
// page-content model, and the decoder robustness modes (§2).
#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "recovery/ft_lib.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/scheduler.hpp"
#include "tv/components.hpp"
#include "tv/tv_system.hpp"

namespace rec = trader::recovery;
namespace rt = trader::runtime;
namespace tv = trader::tv;
namespace flt = trader::faults;

// -------------------------------------------------------------- RetryExecutor

TEST(Retry, SucceedsImmediately) {
  rec::RetryExecutor retry(3);
  EXPECT_TRUE(retry.run([] { return true; }));
  EXPECT_EQ(retry.total_attempts(), 1u);
  EXPECT_EQ(retry.failures(), 0u);
}

TEST(Retry, RetriesUntilSuccess) {
  rec::RetryExecutor retry(5);
  int calls = 0;
  EXPECT_TRUE(retry.run([&] { return ++calls == 3; }));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retry.total_attempts(), 3u);
}

TEST(Retry, GivesUpAfterMaxAttempts) {
  rec::RetryExecutor retry(4);
  int calls = 0;
  EXPECT_FALSE(retry.run([&] {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retry.failures(), 1u);
}

// --------------------------------------------------------------- FallbackChain

TEST(Fallback, PrimaryServesWhenHealthy) {
  rec::FallbackChain chain;
  chain.add_level("hd", [] { return std::optional<rt::Value>(std::int64_t{1080}); });
  chain.add_level("sd", [] { return std::optional<rt::Value>(std::int64_t{576}); });
  auto v = chain.get();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*v), 1080);
  EXPECT_EQ(chain.last_level(), 0);
  EXPECT_EQ(chain.degradations(), 0u);
}

TEST(Fallback, DegradesWhenPrimaryFails) {
  rec::FallbackChain chain;
  bool hd_ok = false;
  chain.add_level("hd", [&]() -> std::optional<rt::Value> {
    if (hd_ok) return std::int64_t{1080};
    return std::nullopt;
  });
  chain.add_level("sd", [] { return std::optional<rt::Value>(std::int64_t{576}); });
  auto v = chain.get();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*v), 576);
  EXPECT_EQ(chain.last_level(), 1);
  EXPECT_EQ(chain.level_name(1), "sd");
  EXPECT_EQ(chain.degradations(), 1u);
  hd_ok = true;
  chain.get();
  EXPECT_EQ(chain.last_level(), 0);  // heals back to primary
}

TEST(Fallback, OutageWhenAllFail) {
  rec::FallbackChain chain;
  chain.add_level("only", []() -> std::optional<rt::Value> { return std::nullopt; });
  EXPECT_FALSE(chain.get().has_value());
  EXPECT_EQ(chain.outages(), 1u);
  EXPECT_EQ(chain.last_level(), -1);
}

// -------------------------------------------------------------- SafeStateGuard

TEST(SafeGuard, AcceptsValidUpdates) {
  const rt::Value initial = std::int64_t{30};
  rec::SafeStateGuard guard(initial, [](const rt::Value& v) {
    const auto* i = std::get_if<std::int64_t>(&v);
    return i != nullptr && *i >= 0 && *i <= 100;
  });
  EXPECT_TRUE(guard.update(rt::Value{std::int64_t{55}}));
  EXPECT_EQ(std::get<std::int64_t>(guard.value()), 55);
  EXPECT_EQ(guard.accepted(), 1u);
}

TEST(SafeGuard, RejectsCorruptUpdatesKeepingLastGood) {
  const rt::Value initial = std::int64_t{30};
  rec::SafeStateGuard guard(initial, [](const rt::Value& v) {
    const auto* i = std::get_if<std::int64_t>(&v);
    return i != nullptr && *i >= 0 && *i <= 100;
  });
  EXPECT_FALSE(guard.update(rt::Value{std::int64_t{250}}));   // memory corruption
  EXPECT_FALSE(guard.update(rt::Value{std::string("boom")}));  // type confusion
  EXPECT_EQ(std::get<std::int64_t>(guard.value()), 30);
  EXPECT_EQ(guard.rejected(), 2u);
}

// --------------------------------------------------------------- NVersionVoter

TEST(NVersion, UnanimousAgreement) {
  rec::NVersionVoter voter;
  for (const char* name : {"a", "b", "c"}) {
    voter.add_variant(name, [] { return rt::Value{std::int64_t{7}}; });
  }
  const auto verdict = voter.vote();
  EXPECT_TRUE(verdict.agreed);
  EXPECT_EQ(std::get<std::int64_t>(verdict.value), 7);
  EXPECT_TRUE(verdict.dissenters.empty());
  EXPECT_EQ(voter.disagreements(), 0u);
}

TEST(NVersion, MajorityOutvotesFaultyVariant) {
  rec::NVersionVoter voter;
  voter.add_variant("good1", [] { return rt::Value{std::int64_t{7}}; });
  voter.add_variant("buggy", [] { return rt::Value{std::int64_t{9}}; });
  voter.add_variant("good2", [] { return rt::Value{std::int64_t{7}}; });
  const auto verdict = voter.vote();
  EXPECT_TRUE(verdict.agreed);
  EXPECT_EQ(std::get<std::int64_t>(verdict.value), 7);
  ASSERT_EQ(verdict.dissenters.size(), 1u);
  EXPECT_EQ(verdict.dissenters[0], "buggy");
  EXPECT_EQ(voter.disagreements(), 1u);
}

TEST(NVersion, NoMajorityIsFlagged) {
  rec::NVersionVoter voter;
  voter.add_variant("a", [] { return rt::Value{std::int64_t{1}}; });
  voter.add_variant("b", [] { return rt::Value{std::int64_t{2}}; });
  const auto verdict = voter.vote();
  EXPECT_FALSE(verdict.agreed);
}

TEST(NVersion, EmptyVoterIsBenign) {
  rec::NVersionVoter voter;
  const auto verdict = voter.vote();
  EXPECT_FALSE(verdict.agreed);
}

TEST(Fallback, RepeatedExhaustionCountsEveryOutageAndHealsDeepestFirst) {
  // Level exhaustion under a progressing outage: levels fail top-down,
  // the chain serves the deepest survivor, and once everything is gone
  // every get() is a counted outage — then service heals bottom-up.
  rec::FallbackChain chain;
  bool hd = true, sd = true, audio = true;
  chain.add_level("hd", [&]() -> std::optional<rt::Value> {
    if (hd) return std::int64_t{1080};
    return std::nullopt;
  });
  chain.add_level("sd", [&]() -> std::optional<rt::Value> {
    if (sd) return std::int64_t{576};
    return std::nullopt;
  });
  chain.add_level("audio-only", [&]() -> std::optional<rt::Value> {
    if (audio) return std::int64_t{0};
    return std::nullopt;
  });

  hd = false;
  chain.get();
  EXPECT_EQ(chain.last_level(), 1);
  sd = false;
  chain.get();
  EXPECT_EQ(chain.last_level(), 2);
  EXPECT_EQ(chain.level_name(2), "audio-only");
  EXPECT_EQ(chain.degradations(), 2u);

  audio = false;  // full exhaustion: every level dark
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(chain.get().has_value()) << "outage get " << i;
    EXPECT_EQ(chain.last_level(), -1);
  }
  EXPECT_EQ(chain.outages(), 3u) << "every exhausted query is an outage";

  // Partial heal: the deepest level returning is enough to end the
  // outage (still a degradation, not primary service).
  audio = true;
  auto v = chain.get();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(chain.last_level(), 2);
  EXPECT_EQ(chain.degradations(), 3u);
  EXPECT_EQ(chain.outages(), 3u);

  hd = true;  // full heal: straight back to primary, no extra counts
  chain.get();
  EXPECT_EQ(chain.last_level(), 0);
  EXPECT_EQ(chain.degradations(), 3u);
}

TEST(SafeGuard, ReentryAfterFailedRecoveryKeepsLastGoodUntilAValidWrite) {
  // A failed recovery is exactly a re-entrant corrupt writer: the
  // restarted component comes back wrong and keeps writing garbage.
  // The guard must hold the last-good value through the whole failed
  // episode and accept the first valid write of the successful retry.
  const rt::Value initial = std::int64_t{12};
  rec::SafeStateGuard guard(initial, [](const rt::Value& v) {
    const auto* i = std::get_if<std::int64_t>(&v);
    return i != nullptr && *i >= 0 && *i <= 100;
  });
  ASSERT_TRUE(guard.update(rt::Value{std::int64_t{40}}));

  // First recovery attempt fails: the component re-enters with corrupt
  // state and hammers the guard.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(guard.update(rt::Value{std::int64_t{1000 + i}}));
    EXPECT_EQ(std::get<std::int64_t>(guard.value()), 40) << "last good held";
  }
  EXPECT_EQ(guard.rejected(), 5u);

  // Second recovery succeeds: the first valid write re-enters service.
  EXPECT_TRUE(guard.update(rt::Value{std::int64_t{41}}));
  EXPECT_EQ(std::get<std::int64_t>(guard.value()), 41);
  EXPECT_EQ(guard.accepted(), 2u);
  EXPECT_EQ(guard.rejected(), 5u) << "history survives the recovery";
}

TEST(NVersion, EvenSplitTieIsNotAMajority) {
  // 2-2 tie: no strict majority. The verdict must say so, expose the
  // first-seen camp's value (a deterministic, not a correct, choice)
  // and name the other camp as dissenters.
  rec::NVersionVoter voter;
  voter.add_variant("a1", [] { return rt::Value{std::int64_t{7}}; });
  voter.add_variant("b1", [] { return rt::Value{std::int64_t{9}}; });
  voter.add_variant("a2", [] { return rt::Value{std::int64_t{7}}; });
  voter.add_variant("b2", [] { return rt::Value{std::int64_t{9}}; });
  const auto verdict = voter.vote();
  EXPECT_FALSE(verdict.agreed);
  EXPECT_EQ(std::get<std::int64_t>(verdict.value), 7);  // first seen, flagged unagreed
  ASSERT_EQ(verdict.dissenters.size(), 2u);
  EXPECT_EQ(verdict.dissenters[0], "b1");
  EXPECT_EQ(verdict.dissenters[1], "b2");
  EXPECT_EQ(voter.disagreements(), 1u);

  // A tie among agreeing duplicates is still unanimous: two variants,
  // same value -> 2 of 2 IS a strict majority.
  rec::NVersionVoter pair;
  pair.add_variant("x", [] { return rt::Value{std::int64_t{5}}; });
  pair.add_variant("y", [] { return rt::Value{std::int64_t{5}}; });
  EXPECT_TRUE(pair.vote().agreed);
}

// ----------------------------------------------------- Teletext page content

TEST(TeletextContent, CarouselFillsCacheFromTunedChannel) {
  tv::TeletextEngine ttx;
  ttx.on_channel_change(5);
  ttx.show();
  for (int i = 0; i < 10; ++i) ttx.tick_acquisition(true, 5);
  EXPECT_EQ(ttx.page_source(100), 5);
  EXPECT_EQ(ttx.page_content(100), "ch5/p100");
  EXPECT_TRUE(ttx.displayed_page_current(5));
  EXPECT_DOUBLE_EQ(ttx.cache_staleness(5), 0.0);
}

TEST(TeletextContent, UncachedPageHasNoContent) {
  tv::TeletextEngine ttx;
  ttx.show();
  EXPECT_EQ(ttx.page_source(500), -1);
  EXPECT_EQ(ttx.page_content(500), "");
  EXPECT_FALSE(ttx.displayed_page_current(1));
}

TEST(TeletextContent, DesyncShowsStalePagesThatCarouselSlowlyRefreshes) {
  tv::TeletextEngine ttx;
  ttx.on_channel_change(1);
  ttx.show();
  for (int i = 0; i < 25; ++i) ttx.tick_acquisition(true, 1);  // 100 pages of ch1
  // The tuner moves to channel 2 but the engine never hears about it.
  EXPECT_GT(ttx.cache_staleness(2), 0.9);
  EXPECT_FALSE(ttx.displayed_page_current(2));  // stale page on screen
  // The carousel keeps delivering — now with channel-2 content — and the
  // stale fraction decays as pages are overwritten.
  const double before = ttx.cache_staleness(2);
  for (int i = 0; i < 15; ++i) ttx.tick_acquisition(true, 2);
  EXPECT_LT(ttx.cache_staleness(2), before);
}

TEST(TeletextContent, ChannelChangeClearsCache) {
  tv::TeletextEngine ttx;
  ttx.on_channel_change(1);
  ttx.show();
  for (int i = 0; i < 5; ++i) ttx.tick_acquisition(true, 1);
  EXPECT_GT(ttx.page_source(100), 0);
  ttx.on_channel_change(2);
  EXPECT_EQ(ttx.page_source(100), -1);
}

TEST(TeletextContent, TvSystemShowsStaleContentAfterLostChannelChange) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvSystem set(sched, bus, injector);
  set.start();
  set.press(tv::Key::kPower);
  sched.run_for(rt::msec(200));
  set.press(tv::Key::kTeletext);
  sched.run_for(rt::sec(1));  // cache fills from channel 1
  EXPECT_TRUE(set.teletext().displayed_page_current(set.tuner().channel()));
  set.press(tv::Key::kBack);
  sched.run_for(rt::msec(100));
  injector.schedule(flt::FaultSpec{flt::FaultKind::kMessageLoss, "cmd.teletext", sched.now(),
                                   rt::msec(50), 1.0, {}});
  set.press(tv::Key::kChannelUp);
  sched.run_for(rt::msec(100));
  set.press(tv::Key::kTeletext);
  sched.run_for(rt::msec(100));
  // The user sees channel-1 pages while watching channel 2.
  EXPECT_FALSE(set.teletext().displayed_page_current(set.tuner().channel()));
  EXPECT_GT(set.teletext().cache_staleness(set.tuner().channel()), 0.5);
}

// --------------------------------------------------------- Decoder robustness

namespace {

double drop_rate_with(bool robust, double deviation_rate) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvConfig config;
  config.robust_decoder = robust;
  tv::TvSystem set(sched, bus, injector, config);
  // Make channel 1's stream deviate often (a sloppy encoder upstream).
  const_cast<tv::ChannelInfo&>(set.lineup().info(1)).deviation_rate = deviation_rate;
  set.start();
  set.press(tv::Key::kPower);
  sched.run_until(rt::sec(20));
  EXPECT_GT(set.stats().coding_deviations, 0u);
  return set.stats().drop_rate();
}

}  // namespace

TEST(DecoderRobustness, StrictDecoderDropsFramesOnDeviations) {
  const double robust = drop_rate_with(true, 0.05);
  const double strict = drop_rate_with(false, 0.05);
  EXPECT_LT(robust, 0.02);            // tolerant path barely hiccups
  EXPECT_GT(strict, robust + 0.05);   // lost-sync glitches hurt
}

TEST(DecoderRobustness, CleanStreamsEqualizeTheModes) {
  rt::Scheduler sched;
  rt::EventBus bus;
  flt::FaultInjector injector(rt::Rng(3));
  tv::TvConfig config;
  config.robust_decoder = false;
  tv::TvSystem set(sched, bus, injector, config);
  set.start();
  set.press(tv::Key::kPower);
  set.enter_channel(2);  // channel 2 has deviation_rate 0
  sched.run_until(rt::sec(10));
  EXPECT_LT(set.stats().drop_rate(), 0.05);
}
