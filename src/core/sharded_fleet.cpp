#include "core/sharded_fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "runtime/fnv.hpp"

namespace trader::core {

// ---------------------------------------------------------------------- Shard

ShardedFleet::Shard::Shard(ShardedFleet& fleet, std::size_t index, std::uint64_t seed)
    : fleet_(fleet),
      index_(index),
      rng_(runtime::Rng(seed).fork()),
      cross_shard_out_(&metrics_.counter("fleet.cross_shard_out")) {}

void ShardedFleet::Shard::publish(const runtime::Event& ev) {
  const RouteTable::Route* route = fleet_.routes_.find(ev.topic);
  if (route == nullptr) {
    fleet_.unrouted_events_metric_.inc();
    return;
  }
  route->for_each_owner([&](const RouteOwner& owner) {
    fleet_.shards_[owner.shard]->mailbox_.push(ev, sched_.now(),
                                               static_cast<std::uint32_t>(index_), route_seq_,
                                               owner.topic);
    if (owner.shard != index_) cross_shard_out_->inc();
  });
  ++route_seq_;
}

// ----------------------------------------------------------------- RouteTable

void ShardedFleet::RouteTable::add(const std::string& topic, RouteOwner owner) {
  const runtime::SymbolTable::Id id = topics_.intern(topic);
  if (id == routes_.size()) {
    routes_.push_back(Route{owner, {}});
    return;
  }
  Route& route = routes_[id];
  if (route.first.shard == owner.shard) return;
  for (const RouteOwner& o : route.more) {
    if (o.shard == owner.shard) return;
  }
  if (owner.shard < route.first.shard) std::swap(owner, route.first);
  const auto pos = std::find_if(route.more.begin(), route.more.end(),
                                [&](const RouteOwner& o) { return o.shard > owner.shard; });
  route.more.insert(pos, owner);
}

// --------------------------------------------------------------- ShardedFleet

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(config),
      epochs_metric_(fleet_metrics_.counter("fleet.epochs")),
      external_events_metric_(fleet_metrics_.counter("fleet.external_events")),
      unrouted_events_metric_(fleet_metrics_.counter("fleet.unrouted_events")) {
  config_.shards = std::max<std::size_t>(config_.shards, 1);
  if (config_.epoch <= 0) config_.epoch = runtime::msec(10);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    // Per-shard seed: mix the shard index into the master seed so each
    // shard draws an independent deterministic stream.
    const std::uint64_t shard_seed =
        config_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
    shards_.push_back(std::unique_ptr<Shard>(new Shard(*this, i, shard_seed)));
  }
  fleet_metrics_.gauge("fleet.shards").set(static_cast<double>(config_.shards));
  phase_barrier_ = std::make_unique<std::barrier<>>(static_cast<std::ptrdiff_t>(config_.shards));
}

ShardedFleet::~ShardedFleet() {
  stop();
  if (workers_.empty()) return;  // one shard, or never started
  shutdown_ = true;
  phase_barrier_->arrive_and_wait();
  for (auto& w : workers_) w.join();
}

std::size_t ShardedFleet::shard_of(const std::string& aspect) const {
  // FNV-1a, not std::hash: placement must not vary across platforms.
  return runtime::Fnv1a64().bytes(aspect).value() % shards_.size();
}

AwarenessMonitor& ShardedFleet::add_monitor(const std::string& aspect, MonitorBuilder builder) {
  if (running_) {
    throw std::logic_error("ShardedFleet::add_monitor: stop() the fleet before adding monitors");
  }
  Shard& shard = *shards_[shard_of(aspect)];
  add_route(builder.input_topic(), shard.index_);
  for (const auto& topic : builder.output_topics()) add_route(topic, shard.index_);

  builder.default_arena(shard.arena_);
  auto monitor = builder.build(shard.sched_, shard.bus_);
  AwarenessMonitor& ref = *monitor;
  const std::string name = aspect;
  Shard* home = &shard;
  ref.set_recovery_handler([this, home, name](const ErrorReport& report) {
    home->errors_.push_back(AspectError{name, report});
    if (handler_) {
      std::lock_guard<std::mutex> lock(handler_mu_);
      handler_(home->errors_.back());
    }
  });
  ref.set_metrics(&shard.metrics_);
  shard.entries_.push_back(Shard::Entry{aspect, std::move(monitor)});
  fleet_metrics_.gauge("fleet.monitors").set(static_cast<double>(monitor_count()));
  return ref;
}

void ShardedFleet::add_route(const std::string& topic, std::size_t shard_index) {
  Shard& owner = *shards_.at(shard_index);
  routes_.add(topic, RouteOwner{static_cast<std::uint32_t>(shard_index), owner.bus_.topic(topic)});
}

std::size_t ShardedFleet::monitor_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->entries_.size();
  return n;
}

AwarenessMonitor& ShardedFleet::monitor(const std::string& aspect) {
  for (auto& s : shards_) {
    for (auto& e : s->entries_) {
      if (e.aspect == aspect) return *e.monitor;
    }
  }
  throw std::out_of_range("no monitor for aspect: " + aspect);
}

void ShardedFleet::start() {
  if (running_) return;
  running_ = true;
  for (auto& s : shards_) {
    for (auto& e : s->entries_) e.monitor->start();
  }
  // The first start() spawns the workers for shards 1..N-1.
  for (std::size_t i = workers_.size() + 1; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(*shards_[i]); });
  }
}

void ShardedFleet::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& s : shards_) {
    for (auto& e : s->entries_) e.monitor->stop();
  }
}

void ShardedFleet::publish(const runtime::Event& ev) {
  const RouteTable::Route* route = routes_.find(ev.topic);
  if (route == nullptr) {
    unrouted_events_metric_.inc();
    return;
  }
  external_events_metric_.inc();
  route->for_each_owner([&](const RouteOwner& owner) {
    shards_[owner.shard]->mailbox_.push(ev, now_, runtime::Mailbox::kExternalSource,
                                        external_seq_, owner.topic);
  });
  ++external_seq_;
}

void ShardedFleet::run_until(runtime::SimTime t) {
  if (!running_) start();
  while (now_ < t) {
    // Epoch boundaries sit on an absolute grid so delivery times do not
    // depend on how callers chunk their run_until() calls.
    const runtime::SimTime grid_next = (now_ / config_.epoch + 1) * config_.epoch;
    const runtime::SimTime target = std::min(t, grid_next);
    run_epoch(target);
    now_ = target;
    epochs_metric_.inc();
  }
}

void ShardedFleet::run_epoch(runtime::SimTime target) {
  target_ = target;
  phase_barrier_->arrive_and_wait();  // release the workers into this epoch
  step_shard(*shards_[0]);
  for (auto& s : shards_) {
    if (s->failure_) std::rethrow_exception(std::exchange(s->failure_, nullptr));
  }
}

void ShardedFleet::worker_loop(Shard& shard) {
  for (;;) {
    phase_barrier_->arrive_and_wait();
    if (shutdown_) return;
    step_shard(shard);
  }
}

// A shard that throws still crosses every barrier, so no peer waits
// forever; it sits out until run_epoch() has rethrown its exception on
// the caller's thread.
void ShardedFleet::step_shard(Shard& shard) {
  const auto guarded = [&shard](auto&& phase) {
    if (shard.failure_) return;
    try {
      phase();
    } catch (...) {
      shard.failure_ = std::current_exception();
    }
  };
  // Phase 1: every shard drains before any shard runs, so events
  // routed during the run phase can only land in the next epoch.
  guarded([&] { drain_mailbox(shard); });
  phase_barrier_->arrive_and_wait();
  // Phase 2: lock-free shard-local event processing.
  guarded([&] { shard.sched_.run_until(target_); });
  phase_barrier_->arrive_and_wait();
}

void ShardedFleet::drain_mailbox(Shard& shard) {
  // Each event is delivered from its mailbox slot, which keeps its
  // storage for the next epoch's pushes. Every push named the topic's
  // index on this shard's bus, so delivery looks nothing up.
  for (auto& entry : shard.mailbox_.drain()) {
    entry.event.timestamp = shard.sched_.now();
    shard.bus_.publish(entry.topic, entry.event);
  }
}

std::vector<AspectError> ShardedFleet::errors() const {
  std::vector<AspectError> merged;
  for (const auto& s : shards_) {
    merged.insert(merged.end(), s->errors_.begin(), s->errors_.end());
  }
  std::stable_sort(merged.begin(), merged.end(), [](const AspectError& a, const AspectError& b) {
    return std::tie(a.report.detected_at, a.aspect) < std::tie(b.report.detected_at, b.aspect);
  });
  return merged;
}

std::size_t ShardedFleet::error_count(const std::string& aspect) const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    for (const auto& e : s->errors_) {
      if (e.aspect == aspect) ++n;
    }
  }
  return n;
}

runtime::MetricsSnapshot ShardedFleet::metrics() const {
  runtime::MetricsSnapshot snap = fleet_metrics_.snapshot();
  for (const auto& s : shards_) snap.merge(s->metrics_.snapshot());
  return snap;
}

}  // namespace trader::core
