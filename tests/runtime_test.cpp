// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/channel.hpp"
#include "runtime/event.hpp"
#include "runtime/event_bus.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "runtime/trace_log.hpp"

namespace rt = trader::runtime;

// ------------------------------------------------------------------- SimTime

TEST(SimTime, UnitHelpers) {
  EXPECT_EQ(rt::usec(5), 5);
  EXPECT_EQ(rt::msec(5), 5000);
  EXPECT_EQ(rt::sec(2), 2'000'000);
  EXPECT_DOUBLE_EQ(rt::to_ms(1500), 1.5);
  EXPECT_DOUBLE_EQ(rt::to_sec(2'500'000), 2.5);
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  rt::Rng a(42);
  rt::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rt::Rng a(1);
  rt::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  rt::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  rt::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  rt::Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  rt::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  rt::Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMeanAndSpread) {
  rt::Rng rng(13);
  rt::StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  rt::Rng rng(17);
  rt::StatAccumulator acc;
  for (int i = 0; i < 30000; ++i) acc.add(rng.exponential(5.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.25);
}

TEST(Rng, ForkIsIndependentOfLaterParentUse) {
  rt::Rng parent1(5);
  rt::Rng parent2(5);
  rt::Rng child1 = parent1.fork();
  rt::Rng child2 = parent2.fork();
  // Children from identically seeded parents agree.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // And differ from the parent stream.
  EXPECT_NE(parent1.next_u64(), child1.next_u64());
}

// -------------------------------------------------------------------- Values

TEST(Value, ToStringRendersAllAlternatives) {
  EXPECT_EQ(rt::to_string(rt::Value{std::int64_t{42}}), "42");
  EXPECT_EQ(rt::to_string(rt::Value{std::string("hi")}), "hi");
  EXPECT_EQ(rt::to_string(rt::Value{true}), "true");
  EXPECT_EQ(rt::to_string(rt::Value{false}), "false");
}

TEST(Value, NumericDeviation) {
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{std::int64_t{10}}, rt::Value{std::int64_t{4}}), 6.0);
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{2.5}, rt::Value{std::int64_t{2}}), 0.5);
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{true}, rt::Value{false}), 1.0);
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{true}, rt::Value{std::int64_t{1}}), 0.0);
}

TEST(Value, StringDeviationIsCategorical) {
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{std::string("a")}, rt::Value{std::string("a")}), 0.0);
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{std::string("a")}, rt::Value{std::string("b")}), 1.0);
}

TEST(Value, MismatchedCategoriesAreMaximallyDeviant) {
  EXPECT_DOUBLE_EQ(rt::deviation(rt::Value{std::string("a")}, rt::Value{std::int64_t{1}}), 1.0);
}

TEST(Value, BothNumeric) {
  EXPECT_TRUE(rt::both_numeric(rt::Value{std::int64_t{1}}, rt::Value{2.0}));
  EXPECT_TRUE(rt::both_numeric(rt::Value{true}, rt::Value{1.5}));
  EXPECT_FALSE(rt::both_numeric(rt::Value{std::string("x")}, rt::Value{1.5}));
}

TEST(Event, FieldAccessors) {
  rt::Event ev;
  ev.topic = "t";
  ev.name = "n";
  ev.fields["i"] = std::int64_t{7};
  ev.fields["d"] = 2.5;
  ev.fields["s"] = std::string("str");
  ev.fields["b"] = true;
  EXPECT_EQ(ev.int_field("i"), 7);
  EXPECT_EQ(ev.int_field("d"), 2);
  EXPECT_EQ(ev.int_field("b"), 1);
  EXPECT_EQ(ev.int_field("missing", -1), -1);
  EXPECT_DOUBLE_EQ(ev.num_field("d"), 2.5);
  EXPECT_DOUBLE_EQ(ev.num_field("i"), 7.0);
  EXPECT_EQ(ev.str_field("s"), "str");
  EXPECT_EQ(ev.str_field("i", "dflt"), "dflt");
  EXPECT_FALSE(ev.field("nope").has_value());
  EXPECT_TRUE(ev.field("i").has_value());
}

TEST(Event, DescribeMentionsTopicNameAndFields) {
  rt::Event ev;
  ev.topic = "tv.output";
  ev.name = "volume";
  ev.fields["value"] = std::int64_t{30};
  ev.timestamp = 123;
  const std::string d = ev.describe();
  EXPECT_NE(d.find("tv.output"), std::string::npos);
  EXPECT_NE(d.find("volume"), std::string::npos);
  EXPECT_NE(d.find("30"), std::string::npos);
}

// ------------------------------------------------------------------ Scheduler

TEST(Scheduler, RunsCallbacksInTimeOrder) {
  rt::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 300);
}

TEST(Scheduler, FifoForSameTimestamp) {
  rt::Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  rt::Scheduler sched;
  rt::SimTime seen = -1;
  sched.schedule_at(100, [&] {
    sched.schedule_after(50, [&] { seen = sched.now(); });
  });
  sched.run_all();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  rt::Scheduler sched;
  sched.run_until(1000);
  rt::SimTime seen = -1;
  sched.schedule_at(10, [&] { seen = sched.now(); });
  sched.run_all();
  EXPECT_EQ(seen, 1000);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  rt::Scheduler sched;
  int count = 0;
  sched.schedule_at(100, [&] { ++count; });
  sched.schedule_at(200, [&] { ++count; });
  sched.schedule_at(201, [&] { ++count; });
  sched.run_until(200);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 200);
  sched.run_until(300);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, CancelPreventsExecution) {
  rt::Scheduler sched;
  int count = 0;
  auto h = sched.schedule_at(100, [&] { ++count; });
  sched.cancel(h);
  sched.run_all();
  EXPECT_EQ(count, 0);
}

TEST(Scheduler, CancelTwiceIsSafe) {
  rt::Scheduler sched;
  auto h = sched.schedule_at(100, [] {});
  sched.cancel(h);
  sched.cancel(h);
  sched.run_all();
  SUCCEED();
}

// A handle names a slot and the slot's generation: once its one-shot
// has fired, the slot is reused under a new generation, and the old
// handle no longer reaches it.
TEST(Scheduler, StaleHandleDoesNotCancelATaskReusingItsSlot) {
  rt::Scheduler sched;
  int first = 0;
  int second = 0;
  const rt::TaskHandle stale = sched.schedule_at(10, [&] { ++first; });
  sched.run_until(10);
  const rt::TaskHandle fresh = sched.schedule_at(20, [&] { ++second; });
  EXPECT_EQ(sched.task_slots(), 1u);  // the fired task's slot was reused
  sched.cancel(stale);
  sched.run_until(30);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  sched.cancel(fresh);  // fired already: a no-op too
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, CancelTwiceLeavesTheReusedSlotAlone) {
  rt::Scheduler sched;
  int ran = 0;
  const rt::TaskHandle h = sched.schedule_at(100, [&] { ran += 10; });
  sched.cancel(h);
  sched.cancel(h);
  sched.run_all();
  sched.schedule_at(200, [&] { ++ran; });
  sched.cancel(h);  // the slot's old generation
  sched.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, ScheduleCancelCyclesLeaveNothingBehind) {
  rt::Scheduler sched;
  for (int i = 0; i < 10000; ++i) {
    sched.cancel(sched.schedule_after(1000, [] {}));
  }
  // Dead keys are dropped once they outnumber live ones.
  EXPECT_LE(sched.pending(), 1u);
  EXPECT_LE(sched.task_slots(), 1u);
  for (int i = 0; i < 10000; ++i) {
    const rt::TaskHandle h = sched.schedule_every(10, [] {});
    sched.run_for(10);
    sched.cancel(h);
  }
  sched.run_for(10);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_LE(sched.task_slots(), 1u);
  EXPECT_EQ(sched.executed(), 10000u);
}

// The callback runs from its slab slot while it schedules more tasks;
// the slab grows meanwhile, and the running callback must not move.
TEST(Scheduler, CallbacksScheduleThousandsOfTasksFromInside) {
  rt::Scheduler sched;
  std::vector<int> order;
  const std::string tag(64, 'x');  // captured state too big for the inline buffer
  sched.schedule_at(10, [&, tag] {
    for (int i = 0; i < 1500; ++i) sched.schedule_after(i % 7, [&order, i] { order.push_back(i); });
    EXPECT_EQ(tag.size(), 64u);
  });
  int fires = 0;
  rt::TaskHandle periodic;
  periodic = sched.schedule_every(100, [&, tag] {
    ++fires;
    for (int i = 0; i < 1200; ++i) sched.schedule_after(1, [&order] { order.push_back(-1); });
    EXPECT_EQ(tag.size(), 64u);
    if (fires == 2) sched.cancel(periodic);
  });
  sched.run_until(1000);
  EXPECT_EQ(fires, 2);
  ASSERT_EQ(order.size(), 1500u + 2400u);
  // Same-time tasks keep their scheduling order.
  std::vector<int> at_zero;
  for (int i = 0; i < 1500; i += 7) at_zero.push_back(i);
  EXPECT_TRUE(std::equal(at_zero.begin(), at_zero.end(), order.begin()));
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, PeriodicFiresRepeatedly) {
  rt::Scheduler sched;
  std::vector<rt::SimTime> fires;
  sched.schedule_every(100, [&] { fires.push_back(sched.now()); });
  sched.run_until(450);
  EXPECT_EQ(fires, (std::vector<rt::SimTime>{100, 200, 300, 400}));
}

TEST(Scheduler, PeriodicCancelStopsFutureFires) {
  rt::Scheduler sched;
  int count = 0;
  rt::TaskHandle h = sched.schedule_every(100, [&] { ++count; });
  sched.run_until(250);
  EXPECT_EQ(count, 2);
  sched.cancel(h);
  sched.run_until(1000);
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, PeriodicCanCancelItself) {
  rt::Scheduler sched;
  int count = 0;
  rt::TaskHandle h;
  h = sched.schedule_every(100, [&] {
    ++count;
    if (count == 3) sched.cancel(h);
  });
  sched.run_until(2000);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, ThrowingPeriodicStaysArmedInSequenceOrder) {
  rt::Scheduler sched;
  std::vector<std::string> order;
  int fires = 0;
  sched.schedule_every(100, [&] {
    ++fires;
    order.push_back("tick@" + std::to_string(sched.now()));
    // Queued after the tick re-armed itself, so it runs after it.
    if (fires == 1) sched.schedule_at(200, [&] { order.push_back("later@200"); });
    if (fires == 2) throw std::runtime_error("tick failed");
  });
  sched.schedule_at(200, [&] { order.push_back("early@200"); });
  sched.run_until(150);
  EXPECT_THROW(sched.run_until(250), std::runtime_error);
  sched.run_until(300);
  EXPECT_EQ(order, (std::vector<std::string>{"tick@100", "early@200", "tick@200", "later@200",
                                             "tick@300"}));
  EXPECT_EQ(fires, 3);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  rt::Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_at(10, [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, ExecutedCounterCounts) {
  rt::Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(i, [] {});
  sched.run_all();
  EXPECT_EQ(sched.executed(), 7u);
}

TEST(Scheduler, NestedSchedulingWithinCallback) {
  rt::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(10, [&] {
    order.push_back(1);
    sched.schedule_at(10, [&] { order.push_back(2); });  // same instant
  });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------- SchedulerDifferential
//
// Seeded random programs run against the Scheduler and against a plain
// list that fires its keys in (at, seq) order by linear scan, with the
// same clamping, re-arm and dead-key rules. Each program mixes
// schedule_at (past times, future times, many ties), schedule_after,
// schedule_every, cancel (live, repeated, stale and never-issued
// handles), callbacks that schedule and cancel from inside, and
// throwing one-shot and periodic callbacks. Descending bursts put keys
// below every run's last key and need more runs than the scheduler
// keeps, so keys wait in the heap and in runs at once. Both sides must
// fire the same tasks at the same times and agree on now(), pending()
// and executed() after every operation.

namespace {

/// The operations a program applies. A task's id is the number of
/// tasks made before it.
class SchedulerUnderTest {
 public:
  using Callback = std::function<void()>;
  virtual ~SchedulerUnderTest() = default;
  virtual rt::SimTime now() const = 0;
  virtual void schedule_at(rt::SimTime at, Callback cb) = 0;
  virtual void schedule_after(rt::SimDuration delay, Callback cb) = 0;
  virtual void schedule_every(rt::SimDuration period, Callback cb) = 0;
  virtual void cancel(std::size_t task) = 0;
  virtual bool step() = 0;
  virtual void run_until(rt::SimTime t) = 0;
  virtual void run_all() = 0;
  virtual std::size_t pending() const = 0;
  virtual std::uint64_t executed() const = 0;
};

class RealScheduler final : public SchedulerUnderTest {
 public:
  rt::SimTime now() const override { return sched_.now(); }
  void schedule_at(rt::SimTime at, Callback cb) override {
    handles_.push_back(sched_.schedule_at(at, std::move(cb)));
  }
  void schedule_after(rt::SimDuration delay, Callback cb) override {
    handles_.push_back(sched_.schedule_after(delay, std::move(cb)));
  }
  void schedule_every(rt::SimDuration period, Callback cb) override {
    handles_.push_back(sched_.schedule_every(period, std::move(cb)));
  }
  void cancel(std::size_t task) override {
    sched_.cancel(task < handles_.size() ? handles_[task] : rt::TaskHandle{});
  }
  bool step() override { return sched_.step(); }
  void run_until(rt::SimTime t) override { sched_.run_until(t); }
  void run_all() override { sched_.run_all(); }
  std::size_t pending() const override { return sched_.pending(); }
  std::uint64_t executed() const override { return sched_.executed(); }

 private:
  rt::Scheduler sched_;
  std::vector<rt::TaskHandle> handles_;
};

/// Every queued key in one list, scanned for the smallest (at, seq).
class ReferenceScheduler final : public SchedulerUnderTest {
 public:
  rt::SimTime now() const override { return now_; }
  void schedule_at(rt::SimTime at, Callback cb) override { add(std::max(at, now_), 0, std::move(cb)); }
  void schedule_after(rt::SimDuration delay, Callback cb) override {
    schedule_at(now_ + std::max<rt::SimDuration>(delay, 0), std::move(cb));
  }
  void schedule_every(rt::SimDuration period, Callback cb) override {
    add(now_ + period, period, std::move(cb));
  }
  void cancel(std::size_t task) override {
    if (task >= tasks_.size()) return;
    Task& t = tasks_[task];
    if (t.done || t.cancelled) return;
    t.cancelled = true;
    if (!t.queued) return;  // running: done when its callback returns
    ++dead_;
    if (2 * dead_ <= keys_.size()) return;
    // Dead keys outnumber live ones: drop them all.
    std::vector<Key> live;
    for (const Key& k : keys_) {
      if (tasks_[k.task].cancelled) {
        tasks_[k.task].done = true;
      } else {
        live.push_back(k);
      }
    }
    keys_ = std::move(live);
    dead_ = 0;
  }
  bool step() override {
    while (!keys_.empty()) {
      if (run_next(earliest())) return true;
    }
    return false;
  }
  void run_until(rt::SimTime t) override {
    while (!keys_.empty() && keys_[earliest()].at <= t) run_next(earliest());
    now_ = std::max(now_, t);
  }
  void run_all() override {
    while (step()) {
    }
  }
  std::size_t pending() const override { return keys_.size(); }
  std::uint64_t executed() const override { return executed_; }

 private:
  struct Task {
    Callback cb;
    rt::SimDuration period = 0;
    bool queued = true;
    bool cancelled = false;
    bool done = false;
  };
  struct Key {
    rt::SimTime at;
    std::uint64_t seq;
    std::size_t task;
  };

  void add(rt::SimTime at, rt::SimDuration period, Callback cb) {
    tasks_.push_back(Task{std::move(cb), period});
    keys_.push_back(Key{at, seq_++, tasks_.size() - 1});
  }
  std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < keys_.size(); ++i) {
      const Key& k = keys_[i];
      if (k.at < keys_[best].at || (k.at == keys_[best].at && k.seq < keys_[best].seq)) best = i;
    }
    return best;
  }
  bool run_next(std::size_t i) {
    const Key k = keys_[i];
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
    Task& t = tasks_[k.task];  // a deque: stays put while the callback adds tasks
    if (t.cancelled) {
      --dead_;
      t.done = true;
      return false;
    }
    t.queued = false;
    now_ = k.at;
    ++executed_;
    if (t.period == 0) {
      try {
        t.cb();
      } catch (...) {
        t.done = true;
        throw;
      }
      t.done = true;
      return true;
    }
    // The re-arm takes its sequence number before the callback runs.
    const Key next{now_ + t.period, seq_++, k.task};
    const auto rearm = [&] {
      if (t.cancelled) {
        t.done = true;
        return;
      }
      t.queued = true;
      keys_.push_back(next);
    };
    try {
      t.cb();
    } catch (...) {
      rearm();
      throw;
    }
    rearm();
    return true;
  }

  rt::SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t dead_ = 0;
  std::deque<Task> tasks_;
  std::vector<Key> keys_;
};

/// One line of a program's trace: what happened, to which task, and
/// the scheduler's view right after.
struct TraceLine {
  char what;          ///< 'f' fire, 'o' top-level operation, 'x' exception
  std::int64_t arg;   ///< task id (fire) or operation index
  rt::SimTime now;
  std::size_t pending;
  std::uint64_t executed;

  bool operator==(const TraceLine& o) const {
    return what == o.what && arg == o.arg && now == o.now && pending == o.pending &&
           executed == o.executed;
  }
};

std::ostream& operator<<(std::ostream& os, const TraceLine& l) {
  return os << l.what << ' ' << l.arg << " now=" << l.now << " pending=" << l.pending
            << " executed=" << l.executed;
}

class RandomProgram {
 public:
  RandomProgram(SchedulerUnderTest& s, std::uint64_t seed) : s_(s), rng_(seed) {}

  std::vector<TraceLine> run() {
    const int ops = static_cast<int>(rng_.uniform_int(40, 120));
    for (int op = 0; op < ops; ++op) {
      try {
        top_level_op();
      } catch (const std::runtime_error&) {
        note('x', op);
      }
      note('o', op);
    }
    // Stop every task, then drain: nothing may fire and nothing may stay.
    for (std::size_t id = 0; id < made_; ++id) s_.cancel(id);
    s_.run_all();
    note('o', ops);
    return std::move(trace_);
  }

 private:
  static constexpr std::size_t kMaxTasks = 200;
  static constexpr std::size_t kMaxPeriodic = 12;

  void note(char what, std::int64_t arg) {
    trace_.push_back(TraceLine{what, arg, s_.now(), s_.pending(), s_.executed()});
  }

  SchedulerUnderTest::Callback task(bool periodic) {
    const std::size_t id = made_++;
    // Some tasks throw now and then, one-shot and periodic alike.
    const bool thrower = rng_.bernoulli(0.15);
    periodic_.push_back(periodic);
    return [this, id, thrower] { on_fire(id, thrower); };
  }

  void on_fire(std::size_t id, bool thrower) {
    note('f', static_cast<std::int64_t>(id));
    const int inner = static_cast<int>(rng_.uniform_int(0, 3));
    for (int i = 0; i < inner; ++i) {
      switch (rng_.uniform_int(0, 5)) {
        case 0:
        case 1:
          schedule_one();
          break;
        case 2:
          s_.cancel(static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(made_))));
          break;
        case 3:
          s_.cancel(id);  // itself, while it runs
          break;
        default:
          break;
      }
    }
    if (thrower && rng_.bernoulli(0.4)) throw std::runtime_error("task failed");
  }

  rt::SimTime tie_or_random() {
    // Half the times come from a small grid, so keys tie often.
    if (rng_.bernoulli(0.5)) return (s_.now() / 10 + rng_.uniform_int(0, 4)) * 10;
    return s_.now() + rng_.uniform_int(-30, 400);  // negative: in the past
  }

  void schedule_one() {
    if (made_ >= kMaxTasks) return;
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        s_.schedule_at(tie_or_random(), task(false));
        break;
      case 1:
        s_.schedule_after(rng_.uniform_int(-5, 200), task(false));
        break;
      case 2:
        if (!draining_ && periodic_made_ < kMaxPeriodic) {
          ++periodic_made_;
          static constexpr rt::SimDuration kPeriods[] = {7, 10, 25, 50};
          s_.schedule_every(kPeriods[rng_.uniform_int(0, 3)], task(true));
        }
        break;
      default:
        s_.schedule_after(40, task(false));  // a constant-delay stream
        break;
    }
  }

  void top_level_op() {
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
        schedule_one();
        break;
      case 2: {
        // Descending: each key lands below every run's last key, so
        // the runs fill up and the rest waits in the heap.
        const int n = static_cast<int>(rng_.uniform_int(2, 10));
        const rt::SimTime top = s_.now() + rng_.uniform_int(50, 300);
        for (int i = 0; i < n && made_ < kMaxTasks; ++i) {
          s_.schedule_at(top - i * rng_.uniform_int(0, 20), task(false));
        }
        break;
      }
      case 3: {
        // Ascending, constant delay: one run takes all of them.
        const int n = static_cast<int>(rng_.uniform_int(2, 20));
        for (int i = 0; i < n && made_ < kMaxTasks; ++i) s_.schedule_after(25, task(false));
        break;
      }
      case 4:
        // Live, repeated, stale and never-issued handles alike.
        s_.cancel(static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(made_) + 1)));
        break;
      case 5:
      case 6:
        s_.run_until(s_.now() + rng_.uniform_int(0, 120));
        break;
      case 7:
        s_.step();
        break;
      case 8:
        if (rng_.bernoulli(0.3)) {
          // Cancel every periodic task, then drain what is left.
          for (std::size_t t = 0; t < made_; ++t) {
            if (periodic_[t]) s_.cancel(t);
          }
          draining_ = true;
          try {
            s_.run_all();
          } catch (...) {
            draining_ = false;
            throw;
          }
          draining_ = false;
        }
        break;
      default:
        s_.run_until(s_.now());  // fires what is due now, nothing later
        break;
    }
  }

  SchedulerUnderTest& s_;
  rt::Rng rng_;
  std::vector<TraceLine> trace_;
  std::vector<bool> periodic_;
  std::size_t made_ = 0;
  std::size_t periodic_made_ = 0;
  bool draining_ = false;
};

std::vector<TraceLine> trace_of(SchedulerUnderTest& s, std::uint64_t seed) {
  RandomProgram program(s, seed);
  return program.run();
}

}  // namespace

TEST(SchedulerDifferential, RandomProgramsFireLikeASortedList) {
  constexpr std::uint64_t kPrograms = 600;
  std::size_t fires = 0;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    RealScheduler real;
    ReferenceScheduler reference;
    const std::vector<TraceLine> got = trace_of(real, seed);
    const std::vector<TraceLine> want = trace_of(reference, seed);
    const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    ASSERT_TRUE(g == got.end() && w == want.end())
        << "seed " << seed << ", line " << (g - got.begin()) << ": got "
        << (g == got.end() ? std::string("end") : ::testing::PrintToString(*g)) << ", want "
        << (w == want.end() ? std::string("end") : ::testing::PrintToString(*w));
    EXPECT_EQ(got.back().pending, 0u) << "seed " << seed;
    fires += static_cast<std::size_t>(
        std::count_if(got.begin(), got.end(), [](const TraceLine& l) { return l.what == 'f'; }));
  }
  EXPECT_GT(fires, kPrograms * 20);  // the programs did fire their tasks
}

// Each of the descending keys sits below every key queued before it,
// so the first few open runs and the rest wait in the heap; the
// ascending stream beside them appends to one run, and ties between
// the two keep their scheduling order.
TEST(SchedulerDifferential, MoreDescendingKeysThanRunsStillFireInOrder) {
  rt::Scheduler sched;
  std::vector<std::pair<rt::SimTime, int>> fired;
  std::vector<std::pair<rt::SimTime, int>> want;
  int id = 0;
  const auto add = [&](rt::SimTime at) {
    const int mine = id++;
    sched.schedule_at(at, [&, mine] { fired.emplace_back(sched.now(), mine); });
    want.emplace_back(at, mine);
  };
  for (int i = 0; i < 12; ++i) {
    add(1000 - 50 * i);
    add(500 + 10 * i);
  }
  EXPECT_EQ(sched.pending(), 24u);
  sched.run_all();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sched.pending(), 0u);
}

// ------------------------------------------------------------------- EventBus

TEST(EventBus, DeliversToMatchingTopic) {
  rt::EventBus bus;
  int count = 0;
  bus.subscribe("a", [&](const rt::Event&) { ++count; });
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);
  ev.topic = "b";
  bus.publish(ev);
  EXPECT_EQ(count, 1);
}

TEST(EventBus, WildcardSubscriberSeesEverything) {
  rt::EventBus bus;
  int count = 0;
  bus.subscribe("", [&](const rt::Event&) { ++count; });
  rt::Event ev;
  ev.topic = "x";
  bus.publish(ev);
  ev.topic = "y";
  bus.publish(ev);
  EXPECT_EQ(count, 2);
}

TEST(EventBus, TopicSubscribersBeforeWildcard) {
  rt::EventBus bus;
  std::vector<std::string> order;
  bus.subscribe("", [&](const rt::Event&) { order.push_back("wild"); });
  bus.subscribe("t", [&](const rt::Event&) { order.push_back("topic"); });
  rt::Event ev;
  ev.topic = "t";
  bus.publish(ev);
  EXPECT_EQ(order, (std::vector<std::string>{"topic", "wild"}));
}

TEST(EventBus, UnsubscribeStopsDelivery) {
  rt::EventBus bus;
  int count = 0;
  auto sub = bus.subscribe("a", [&](const rt::Event&) { ++count; });
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);
  bus.unsubscribe(sub);
  bus.publish(ev);
  EXPECT_EQ(count, 1);
}

TEST(EventBus, HandlerMaySubscribeDuringDelivery) {
  rt::EventBus bus;
  int late = 0;
  bus.subscribe("a", [&](const rt::Event&) {
    bus.subscribe("a", [&](const rt::Event&) { ++late; });
  });
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);  // must not deliver to the handler added mid-publish
  EXPECT_EQ(late, 0);
  bus.publish(ev);
  EXPECT_EQ(late, 1);
}

TEST(EventBus, SubscriberRemovedMidDeliveryGetsOnlyTheCurrentEvent) {
  rt::EventBus bus;
  int victim_calls = 0;
  rt::Subscription victim;
  bus.subscribe("a", [&](const rt::Event&) { bus.unsubscribe(victim); });
  victim = bus.subscribe("a", [&](const rt::Event&) { ++victim_calls; });
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);  // removed by the first handler, still served this one
  EXPECT_EQ(victim_calls, 1);
  bus.publish(ev);
  EXPECT_EQ(victim_calls, 1);
  EXPECT_EQ(bus.subscriber_count(), 1u);
}

TEST(EventBus, UnsubscribeLeavesOtherTopicsAndIgnoresStaleHandles) {
  rt::EventBus bus;
  std::vector<std::string> seen;
  auto a1 = bus.subscribe("a", [&](const rt::Event&) { seen.push_back("a1"); });
  bus.subscribe("a", [&](const rt::Event&) { seen.push_back("a2"); });
  bus.subscribe("b", [&](const rt::Event&) { seen.push_back("b"); });
  bus.subscribe("", [&](const rt::Event&) { seen.push_back("wild"); });
  bus.unsubscribe(a1);
  bus.unsubscribe(a1);                  // repeated
  bus.unsubscribe(rt::Subscription{});  // never subscribed
  EXPECT_EQ(bus.subscriber_count(), 3u);
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);
  ev.topic = "b";
  bus.publish(ev);
  EXPECT_EQ(seen, (std::vector<std::string>{"a2", "wild", "b", "wild"}));
}

TEST(EventBus, CountsPublishesAndSubscribers) {
  rt::EventBus bus;
  auto s1 = bus.subscribe("a", [](const rt::Event&) {});
  bus.subscribe("b", [](const rt::Event&) {});
  EXPECT_EQ(bus.subscriber_count(), 2u);
  bus.unsubscribe(s1);
  EXPECT_EQ(bus.subscriber_count(), 1u);
  rt::Event ev;
  ev.topic = "a";
  bus.publish(ev);
  bus.publish(ev);
  EXPECT_EQ(bus.published(), 2u);
}

// ------------------------------------------------------------- LatencyChannel

TEST(LatencyChannel, DelaysByBaseLatency) {
  rt::Scheduler sched;
  std::vector<rt::SimTime> deliveries;
  rt::ChannelConfig cfg;
  cfg.base_latency = 500;
  rt::LatencyChannel ch(sched, rt::Rng(1), cfg,
                        [&](const rt::Event& ev) { deliveries.push_back(ev.timestamp); });
  rt::Event ev;
  ch.send(ev);
  sched.run_all();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 500);
}

TEST(LatencyChannel, JitterStaysWithinBounds) {
  rt::Scheduler sched;
  std::vector<rt::SimTime> deliveries;
  rt::ChannelConfig cfg;
  cfg.base_latency = 100;
  cfg.jitter = 400;
  cfg.preserve_order = false;
  rt::LatencyChannel ch(sched, rt::Rng(2), cfg,
                        [&](const rt::Event& ev) { deliveries.push_back(ev.timestamp); });
  rt::Event ev;
  for (int i = 0; i < 200; ++i) ch.send(ev);
  sched.run_all();
  ASSERT_EQ(deliveries.size(), 200u);
  for (auto t : deliveries) {
    EXPECT_GE(t, 100);
    EXPECT_LE(t, 500);
  }
}

TEST(LatencyChannel, PreservesFifoUnderJitter) {
  rt::Scheduler sched;
  std::vector<int> order;
  rt::ChannelConfig cfg;
  cfg.base_latency = 100;
  cfg.jitter = 1000;
  cfg.preserve_order = true;
  rt::LatencyChannel ch(sched, rt::Rng(3), cfg, [&](const rt::Event& ev) {
    order.push_back(static_cast<int>(ev.int_field("seq")));
  });
  for (int i = 0; i < 50; ++i) {
    rt::Event ev;
    ev.fields["seq"] = std::int64_t{i};
    ch.send(ev);
    sched.run_for(10);
  }
  sched.run_all();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(LatencyChannel, JitterWithoutOrderKeepsItsDeliveryTimes) {
  rt::Scheduler sched;
  std::vector<std::pair<std::int64_t, rt::SimTime>> got;  // (send index, delivery time)
  rt::ChannelConfig cfg;
  cfg.base_latency = 100;
  cfg.jitter = 400;
  cfg.preserve_order = false;
  rt::LatencyChannel ch(sched, rt::Rng(9), cfg, [&](const rt::Event& ev) {
    got.emplace_back(ev.int_field("seq"), ev.timestamp);
  });
  // Each delivery time is the send time plus base latency plus the
  // channel's own jitter draw; equal times keep send order.
  rt::Rng draws(9);
  std::vector<std::pair<std::int64_t, rt::SimTime>> want;
  for (int i = 0; i < 60; ++i) {
    rt::Event ev;
    ev.fields["seq"] = std::int64_t{i};
    ch.send(ev);
    want.emplace_back(i, sched.now() + 100 + static_cast<rt::SimDuration>(draws.uniform(0.0, 400.0)));
    sched.run_for(10);
  }
  sched.run_all();
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& x, const auto& y) { return x.second < y.second; });
  EXPECT_EQ(got, want);
}

TEST(LatencyChannel, QueuedDeliveriesDieWithTheScheduler) {
  int delivered = 0;
  {
    rt::Scheduler sched;
    rt::ChannelConfig cfg;
    cfg.base_latency = 1000;
    rt::LatencyChannel ch(sched, rt::Rng(10), cfg, [&](const rt::Event&) { ++delivered; });
    rt::Event ev;
    ev.topic = "a topic too long for the small-string buffer";
    ev.fields["payload"] = std::string(200, 'x');
    ev.fields["n"] = std::int64_t{1};
    for (int i = 0; i < 8; ++i) {
      ch.send(ev);
      sched.run_for(300);
    }
    EXPECT_EQ(sched.pending(), 3u);
  }  // channel, then scheduler, destroyed with deliveries queued: LSan sees no leak
  EXPECT_EQ(delivered, 5);
}

TEST(LatencyChannel, DropsPerProbability) {
  rt::Scheduler sched;
  int delivered = 0;
  rt::ChannelConfig cfg;
  cfg.drop_probability = 1.0;
  rt::LatencyChannel ch(sched, rt::Rng(4), cfg, [&](const rt::Event&) { ++delivered; });
  rt::Event ev;
  for (int i = 0; i < 10; ++i) ch.send(ev);
  sched.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.dropped(), 10u);
  EXPECT_EQ(ch.sent(), 10u);
}

TEST(LatencyChannel, CountersTrackDelivery) {
  rt::Scheduler sched;
  rt::ChannelConfig cfg;
  rt::LatencyChannel ch(sched, rt::Rng(5), cfg, [](const rt::Event&) {});
  rt::Event ev;
  ch.send(ev);
  ch.send(ev);
  sched.run_all();
  EXPECT_EQ(ch.sent(), 2u);
  EXPECT_EQ(ch.delivered(), 2u);
  EXPECT_EQ(ch.dropped(), 0u);
}

TEST(LatencyChannel, ReconfigurableMidRun) {
  rt::Scheduler sched;
  std::vector<rt::SimTime> deliveries;
  rt::ChannelConfig cfg;
  cfg.base_latency = 100;
  rt::LatencyChannel ch(sched, rt::Rng(6), cfg,
                        [&](const rt::Event& ev) { deliveries.push_back(ev.timestamp); });
  rt::Event ev;
  ch.send(ev);
  sched.run_all();
  cfg.base_latency = 900;
  ch.set_config(cfg);
  ch.send(ev);
  sched.run_all();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 100);
  EXPECT_EQ(deliveries[1], 100 + 900);
}

// ------------------------------------------------------------------- TraceLog

TEST(TraceLog, StoresAndQueries) {
  rt::TraceLog log;
  log.log(10, rt::TraceLevel::kInfo, "a", "hello");
  log.log(20, rt::TraceLevel::kError, "b", "bad");
  log.log(30, rt::TraceLevel::kWarning, "a", "warn");
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.count_component("a"), 2u);
  EXPECT_EQ(log.count_at_least(rt::TraceLevel::kWarning), 2u);
  const auto errors =
      log.query([](const rt::TraceRecord& r) { return r.level == rt::TraceLevel::kError; });
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].message, "bad");
}

TEST(TraceLog, EvictsBeyondCapacityButCountsTotal) {
  rt::TraceLog log(4);
  for (int i = 0; i < 10; ++i) log.log(i, rt::TraceLevel::kDebug, "c", "m");
  EXPECT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.total_logged(), 10u);
  EXPECT_EQ(log.records().front().time, 6);
}

TEST(TraceLog, LevelNames) {
  EXPECT_STREQ(rt::to_string(rt::TraceLevel::kDebug), "DEBUG");
  EXPECT_STREQ(rt::to_string(rt::TraceLevel::kError), "ERROR");
}

// ---------------------------------------------------------------------- Stats

TEST(Stats, AccumulatorBasics) {
  rt::StatAccumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  rt::StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Stats, PercentilesInterpolate) {
  rt::PercentileAccumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_NEAR(acc.median(), 50.5, 1e-9);
  EXPECT_NEAR(acc.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(acc.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(acc.percentile(95), 95.05, 0.2);
}

TEST(Stats, PercentileOfEmptyIsZero) {
  rt::PercentileAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.percentile(50), 0.0);
}

TEST(Stats, PercentileAfterLateAdd) {
  rt::PercentileAccumulator acc;
  acc.add(10.0);
  EXPECT_DOUBLE_EQ(acc.median(), 10.0);
  acc.add(20.0);
  EXPECT_DOUBLE_EQ(acc.median(), 15.0);
}
