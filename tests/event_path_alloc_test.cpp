// Allocation budget of the monitored event path.
//
// Every event a fleet monitors travels ShardedFleet::publish -> Mailbox
// -> EventBus -> LatencyChannel -> Scheduler -> observers -> model step
// -> comparator. This binary replaces the global operator new with a
// counting one and drives the fleet_epoch-shaped stream (4096 monitors
// on one ModelProgram, 2048 set/level pairs per 10 ms epoch) through a
// one-shard and a four-shard fleet. After a warm-up, the steady state
// must make at most one heap allocation per published event, and no
// comparison may deviate. What remains is about 0.5 per event: the
// field map {"value": v} that the model's action builds for each
// output it emits, one per set/level pair. Routing, mailbox, bus,
// scheduler, observers, model-output drain and comparator allocate
// nothing once warm. A second case pins the scheduler alone: a
// constant-delay stream beside periodic tasks allocates nothing once
// warm. A third pins the wire decoder: a kSpectrum frame that announces
// more steps than its payload can hold is malformed before the decoder
// reserves anything for them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/monitor_builder.hpp"
#include "core/sharded_fleet.hpp"
#include "frame_reseal.hpp"
#include "ipc/wire.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  ///< Largest single request seen.

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (n > largest && !g_largest.compare_exchange_weak(largest, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace core = trader::core;
namespace ipc = trader::ipc;
namespace rt = trader::runtime;
namespace sm = trader::statemachine;

constexpr rt::SimDuration kEpoch = rt::msec(10);
constexpr std::size_t kMonitors = 4096;
constexpr std::size_t kPairsPerEpoch = 2048;
constexpr std::size_t kPoolEpochs = 8;

/// "set" carries the value the SUO is about to show; the model emits it
/// as the expectation of `observable`, which the matching output must
/// equal.
sm::StateMachineDef level_model(const std::string& observable) {
  sm::StateMachineDef def("level");
  const auto s = def.add_state("S");
  def.add_internal(s, "set", nullptr, [observable](sm::ActionEnv& env) {
    const auto it = env.event.params.find("v");
    if (it != env.event.params.end()) env.emit(observable, {{"value", it->second}});
  });
  return def;
}

std::vector<std::vector<rt::Event>> make_pool(std::uint64_t seed, const std::string& observable) {
  rt::Rng rng(seed);
  std::vector<std::vector<rt::Event>> pool(kPoolEpochs);
  for (auto& epoch : pool) {
    for (std::size_t p = 0; p < kPairsPerEpoch; ++p) {
      const auto m = static_cast<std::size_t>(rng.uniform_int(0, kMonitors - 1));
      const std::int64_t v = rng.uniform_int(0, 1000000);
      rt::Event in;
      in.topic = "in." + std::to_string(m);
      in.name = "set";
      in.fields["v"] = v;
      rt::Event out;
      out.topic = "out." + std::to_string(m);
      out.name = observable;
      out.fields["value"] = v;
      epoch.push_back(std::move(in));
      epoch.push_back(std::move(out));
    }
  }
  return pool;
}

std::unique_ptr<core::ShardedFleet> make_fleet(std::size_t shards,
                                               const std::string& observable) {
  core::ShardedFleetConfig cfg;
  cfg.shards = shards;
  cfg.epoch = kEpoch;
  cfg.seed = 11;
  auto fleet = std::make_unique<core::ShardedFleet>(cfg);
  const core::ModelProgramPtr program = core::compile_model(level_model(observable));
  for (std::size_t m = 0; m < kMonitors; ++m) {
    core::ObservableConfig oc;
    oc.name = observable;
    oc.time_based = false;
    core::MonitorBuilder b;
    b.with_program(program)
        .input_topic("in." + std::to_string(m))
        .output_topic("out." + std::to_string(m))
        .observe(oc)
        .startup_grace(0);
    fleet->add_monitor("m" + std::to_string(m), std::move(b));
  }
  fleet->start();
  return fleet;
}

struct Measured {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
};

Measured drive(core::ShardedFleet& fleet, const std::vector<std::vector<rt::Event>>& pool,
               std::size_t first_epoch, std::size_t epochs) {
  Measured m;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t e = first_epoch; e < first_epoch + epochs; ++e) {
    const auto& batch = pool[e % pool.size()];
    for (const rt::Event& ev : batch) fleet.publish(ev);
    fleet.run_until(fleet.now() + kEpoch);
    m.events += batch.size();
  }
  m.allocations = g_allocations.load() - before;
  return m;
}

double steady_state_allocations_per_event(std::size_t shards, const std::string& observable) {
  const auto pool = make_pool(11, observable);
  auto fleet = make_fleet(shards, observable);
  // Warm-up: every recycled buffer reaches its working size.
  drive(*fleet, pool, 0, 2 * kPoolEpochs);
  const Measured m = drive(*fleet, pool, 2 * kPoolEpochs, 2 * kPoolEpochs);
  fleet->run_until(fleet->now() + kEpoch);

  const double per_event = static_cast<double>(m.allocations) / static_cast<double>(m.events);
  ::testing::Test::RecordProperty("allocations_per_event", std::to_string(per_event));
  std::printf("[ info ] %zu shard(s), \"%s\": %.3f allocations per event (%llu over %llu events)\n",
              shards, observable.c_str(), per_event, static_cast<unsigned long long>(m.allocations),
              static_cast<unsigned long long>(m.events));
  EXPECT_LE(per_event, 1.0);

  const rt::MetricsSnapshot snap = fleet->metrics();
  EXPECT_GT(snap.counter("comparator.comparisons"), 0u);
  EXPECT_EQ(snap.counter("comparator.deviations"), 0u);
  EXPECT_EQ(snap.counter("fleet.unrouted_events"), 0u);
  return per_event;
}

TEST(EventPathAllocations, OneShardSteadyStateStaysWithinBudget) {
  steady_state_allocations_per_event(1, "level");
}

TEST(EventPathAllocations, FourShardSteadyStateStaysWithinBudget) {
  steady_state_allocations_per_event(4, "level");
}

TEST(EventPathAllocations, ObservableNameLengthCostsNoAllocation) {
  // "level" fits the small-string buffer even with a "nocompare:"
  // prefix; "sound_level" (the TV model's name) does not. Neither may
  // cost a heap allocation per comparison.
  const double short_name = steady_state_allocations_per_event(1, "level");
  const double long_name = steady_state_allocations_per_event(1, "sound_level");
  EXPECT_DOUBLE_EQ(long_name, short_name);
}

// The scheduler's queue keeps its storage: once a constant-delay stream
// (a channel's deliveries, drained every epoch) and periodic tasks
// (monitor ticks) have run for a while, neither the runs, the heap nor
// the task slab allocates again, although the runs empty and refill
// every epoch. Both captures fit std::function's inline buffer.
TEST(SchedulerAllocations, ConstantDelayStreamBesidePeriodicTasksAllocatesNothingOnceWarm) {
  rt::Scheduler sched;
  std::uint64_t fired = 0;
  constexpr int kPerEpoch = 100;
  const auto epochs = [&](int count) {
    for (int e = 0; e < count; ++e) {
      for (int i = 0; i < kPerEpoch; ++i) sched.schedule_after(rt::usec(200), [&fired] { ++fired; });
      sched.run_for(kEpoch);
    }
  };
  std::vector<rt::TaskHandle> ticks;
  for (int p = 0; p < 64; ++p) {
    ticks.push_back(sched.schedule_every(rt::msec(50), [&fired] { ++fired; }));
    sched.run_for(rt::usec(700));  // spreads the ticks' phases over the period
  }
  epochs(100);  // warm-up
  const std::uint64_t before = g_allocations.load();
  const std::uint64_t fired_before = fired;
  epochs(10000 / kPerEpoch);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(fired - fired_before, 10000u);  // the stream and the ticks both fired
  for (const rt::TaskHandle h : ticks) sched.cancel(h);
  sched.run_for(rt::msec(50));
  EXPECT_EQ(sched.pending(), 0u);
}

// A checksum-clean kSpectrum frame whose step count exceeds what its
// payload can hold (every step takes at least an error byte and a u32
// id count) decodes as kMalformed, and decoding it allocates nothing
// larger than the payload: the count is refused before any reserve.
TEST(WireDecodeAllocations, StepCountBeyondThePayloadIsRefusedBeforeReserving) {
  ipc::Frame empty_step;
  empty_step.type = ipc::FrameType::kSpectrum;
  empty_step.block_count = 64;
  empty_step.spectra.push_back({false, {}});
  const std::vector<std::uint8_t> one_step = ipc::encode_frame(empty_step);
  ASSERT_EQ(one_step.size(), ipc::kHeaderSize + 8 + 5);

  // (payload bytes kept, announced step count): a bare 8-byte header
  // announcing 65 535 steps, and one empty step announcing two.
  for (const auto& [keep, steps] :
       {std::pair<std::size_t, std::uint32_t>{8, 65535}, {13, 2}}) {
    std::vector<std::uint8_t> bytes = one_step;
    bytes.resize(ipc::kHeaderSize + keep);
    for (int i = 0; i < 4; ++i) {
      bytes[ipc::kHeaderSize + 4 + i] = static_cast<std::uint8_t>(steps >> (8 * i));
    }
    bytes = ipc::reseal(std::move(bytes));
    ipc::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    ipc::Frame out;
    g_largest.store(0);
    EXPECT_EQ(decoder.next(out), ipc::DecodeStatus::kMalformed) << steps << " steps";
    EXPECT_LE(g_largest.load(), keep) << steps << " steps in a " << keep << "-byte payload";
  }
}

}  // namespace
