// Latency channel — the simulated "process boundary".
//
// In the paper's framework (Fig. 2) the SUO and the awareness monitor are
// separate Linux processes connected by Unix domain sockets; observation
// therefore arrives *late and jittered*, which is exactly why the
// Comparator needs deviation thresholds and consecutive-deviation limits
// (§4.3). LatencyChannel reproduces that boundary deterministically:
// configurable base latency, jitter, and drop probability.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/event.hpp"
#include "runtime/rng.hpp"
#include "runtime/scheduler.hpp"

namespace trader::runtime {

/// Configuration of a simulated IPC link.
struct ChannelConfig {
  SimDuration base_latency = usec(200);  ///< Median one-way latency.
  SimDuration jitter = usec(0);          ///< Max extra uniform jitter.
  double drop_probability = 0.0;         ///< Message loss rate (faults).
  bool preserve_order = true;            ///< FIFO even under jitter.
};

/// One-way, event-carrying channel with latency/jitter/loss.
class LatencyChannel {
 public:
  /// Receives each delivered event. The event sits in its in-flight
  /// slot, which is recycled once the sink returns, so the sink may
  /// borrow from it (and should hand back what it borrowed).
  using Sink = std::function<void(Event&)>;

  LatencyChannel(Scheduler& sched, Rng rng, ChannelConfig config, Sink sink)
      : sched_(sched), rng_(rng), config_(config), sink_(std::move(sink)) {}

  /// Enqueue an event for delayed delivery. The event is copied into
  /// the scheduler's in-flight slots; the queued task holds the slot.
  void send(const Event& ev);

  /// Change the link parameters mid-run (fault injection hook).
  void set_config(const ChannelConfig& c) { config_ = c; }
  const ChannelConfig& config() const { return config_; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void deliver(EventSlots::Index slot);

  Scheduler& sched_;
  Rng rng_;
  ChannelConfig config_;
  Sink sink_;
  SimTime last_delivery_ = 0;  // for FIFO preservation
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace trader::runtime
