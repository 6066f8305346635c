// The fleet runtime: several awareness monitors per system (§3).
//
// "Typically, there will be several awareness monitors in a complex
// system, for different components, different aspects, and different
// kinds of faults." ShardedFleet owns a set of named monitors, fans a
// single recovery handler out with the originating aspect attached, and
// aggregates error/metrics views. Monitors are partitioned across N
// shards. Each shard owns a private Scheduler + EventBus + Rng +
// MetricsRegistry, so the hot tick path is entirely shard-local and
// lock-free; the only synchronized structure is the MPSC mailbox
// carrying events that cross a shard boundary.
//
// The thread that calls run_until() runs shard 0 itself; shards 1..N-1
// each have a worker thread, so a one-shard fleet spawns no thread.
// Execution is epoch-based lockstep: virtual time advances in fixed
// quanta, and each epoch is three crossings of one barrier — (a) the
// caller releases the workers, (b) every shard has drained its mailbox
// in deterministic (send-time, source, sequence) order, (c) every shard
// has run its scheduler to the epoch end. Cross-shard events published
// during an epoch are therefore always delivered at the next boundary,
// making delivery order a function of the virtual timeline rather than
// thread interleaving: a fixed seed produces identical error reports
// for 1, 2 or 8 shards.
//
// Monitor placement is a stable hash of the aspect name, so placement
// (and thus results on the deterministic publish paths) does not change
// between runs. A shard is entered only through its mailbox: inject
// events from outside via ShardedFleet::publish(), or from scheduled
// tasks inside a shard via Shard::publish(), and every owner shard sees
// them at the same epoch boundary. A shard's bus is private to that
// shard: an event published straight onto it reaches that shard's
// subscribers at once and no other shard — with one shard that is
// simply a system under observation living on shard(0).sched()/bus().
#pragma once

#include <barrier>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/monitor_builder.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/symbol_table.hpp"

namespace trader::core {

/// An error annotated with the monitor (aspect) that raised it.
struct AspectError {
  std::string aspect;
  ErrorReport report;
};

struct ShardedFleetConfig {
  std::size_t shards = 1;
  /// Barrier quantum: cross-shard events are delivered on this grid.
  runtime::SimDuration epoch = runtime::msec(10);
  /// Master seed; each shard's Rng derives deterministically from it.
  std::uint64_t seed = 0x5eed;
};

class ShardedFleet {
 public:
  using AspectRecoveryHandler = std::function<void(const AspectError&)>;

  /// One shard's private runtime island.
  class Shard {
   public:
    runtime::Scheduler& sched() { return sched_; }
    runtime::EventBus& bus() { return bus_; }
    runtime::Rng& rng() { return rng_; }
    runtime::MetricsRegistry& metrics() { return metrics_; }
    /// This shard's batched model state. Monitors placed here share
    /// per-program BatchExecutors; the arena (like the scheduler) is
    /// only ever touched by the thread running this shard, while the
    /// ModelPrograms inside it are immutable and fleet-wide.
    ModelArena& arena() { return *arena_; }
    std::size_t index() const { return index_; }

    /// Deterministic publish from inside this shard (e.g. from a
    /// scheduled SUO task): the event lands in every owning shard's
    /// mailbox — this shard's included — and is delivered at the next
    /// epoch boundary everywhere.
    void publish(const runtime::Event& ev);

   private:
    friend class ShardedFleet;
    Shard(ShardedFleet& fleet, std::size_t index, std::uint64_t seed);

    struct Entry {
      std::string aspect;
      std::unique_ptr<AwarenessMonitor> monitor;
    };

    ShardedFleet& fleet_;
    std::size_t index_;
    runtime::Scheduler sched_;
    runtime::EventBus bus_;
    runtime::Rng rng_;
    runtime::MetricsRegistry metrics_;
    runtime::Mailbox mailbox_;
    std::shared_ptr<ModelArena> arena_ = std::make_shared<ModelArena>();
    runtime::Counter* cross_shard_out_ = nullptr;
    std::uint64_t route_seq_ = 0;
    std::vector<Entry> entries_;
    std::vector<AspectError> errors_;
    std::exception_ptr failure_;  ///< Thrown this epoch; rethrown by run_epoch().
  };

  explicit ShardedFleet(ShardedFleetConfig config = {});
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// Add a monitor for `aspect`; placement is hash(aspect) % shards.
  /// Only legal while the fleet is stopped (routing stays immutable
  /// while shards run). Returns the monitor for pre-start tuning.
  AwarenessMonitor& add_monitor(const std::string& aspect, MonitorBuilder builder);

  /// Route `topic` to a shard that has no monitor subscribed to it
  /// (tests or custom subscribers on shard(i).bus()). Like add_monitor,
  /// call it between run_* calls only.
  void add_route(const std::string& topic, std::size_t shard_index);

  /// Fleet-wide recovery hook. Called synchronously on the thread
  /// running the reporting monitor's shard — the run_until() caller for
  /// shard 0, a worker for the others — and serialized by an internal
  /// mutex; cross-shard invocation order is unspecified — use errors()
  /// for the deterministic view.
  void set_recovery_handler(AspectRecoveryHandler handler) { handler_ = std::move(handler); }

  /// Start / stop every monitor. Idempotent, like the IControl
  /// contract: double start/stop are no-ops; restart is supported.
  void start();
  void stop();
  bool running() const { return running_; }

  /// Advance all shards in lockstep to virtual time `t` (auto-starts).
  /// An exception thrown inside a shard — by a monitor, the recovery
  /// handler or a scheduled task — is rethrown here once its epoch has
  /// completed on every shard.
  void run_until(runtime::SimTime t);
  void run_for(runtime::SimDuration d) { run_until(now_ + d); }
  runtime::SimTime now() const { return now_; }

  /// Inject an event from outside the fleet; delivered to every owning
  /// shard at the next epoch boundary. Call only between run_* calls.
  void publish(const runtime::Event& ev);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t monitor_count() const;
  std::size_t shard_of(const std::string& aspect) const;
  Shard& shard(std::size_t index) { return *shards_[index]; }
  AwarenessMonitor& monitor(const std::string& aspect);

  /// Merged error view across all shards, sorted by (detection time,
  /// aspect) — identical for identical seeds regardless of shard count.
  std::vector<AspectError> errors() const;
  std::size_t error_count(const std::string& aspect) const;

  /// Merged metrics: fleet-level instruments plus every shard's
  /// registry folded into one snapshot.
  runtime::MetricsSnapshot metrics() const;

 private:
  /// One owner of a routed topic: the shard, and the topic's index on
  /// that shard's bus, so the owner delivers without a lookup.
  struct RouteOwner {
    std::uint32_t shard;
    runtime::EventBus::TopicIndex topic;
  };

  /// topic -> owner shards, one string lookup per published event:
  /// topic ids from a SymbolTable index a dense array of routes. A
  /// route keeps its first owner inline, so the usual single-owner
  /// topic needs no further heap hop. Grows in add_route(); read-only
  /// while shards run.
  class RouteTable {
   public:
    struct Route {
      RouteOwner first;
      std::vector<RouteOwner> more;  ///< Owners after `first`, by shard index.

      template <class F>
      void for_each_owner(F&& f) const {
        f(first);
        for (const RouteOwner& o : more) f(o);
      }
    };

    /// The route of `topic`, or nullptr when no shard owns it.
    const Route* find(const std::string& topic) const {
      const runtime::SymbolTable::Id id = topics_.find(topic);
      return id == runtime::SymbolTable::kNone ? nullptr : &routes_[id];
    }
    /// Make `owner` an owner of `topic`; a repeated shard is a no-op.
    void add(const std::string& topic, RouteOwner owner);

   private:
    runtime::SymbolTable topics_;
    std::vector<Route> routes_;  ///< By topic id.
  };

  void worker_loop(Shard& shard);
  void run_epoch(runtime::SimTime target);
  void step_shard(Shard& shard);
  void drain_mailbox(Shard& shard);

  ShardedFleetConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RouteTable routes_;
  runtime::MetricsRegistry fleet_metrics_;
  runtime::Counter& epochs_metric_;
  runtime::Counter& external_events_metric_;
  runtime::Counter& unrouted_events_metric_;
  AspectRecoveryHandler handler_;
  std::mutex handler_mu_;

  runtime::SimTime now_ = 0;
  std::uint64_t external_seq_ = 0;
  bool running_ = false;

  // The caller writes target_ / shutdown_ before the release crossing
  // of phase_barrier_, which publishes them to every worker.
  std::unique_ptr<std::barrier<>> phase_barrier_;
  runtime::SimTime target_ = 0;
  bool shutdown_ = false;
  /// Shards 1..N-1, spawned by the first start(); shard 0 is the caller.
  std::vector<std::thread> workers_;
};

}  // namespace trader::core
