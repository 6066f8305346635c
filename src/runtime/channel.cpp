#include "runtime/channel.hpp"

#include <algorithm>

namespace trader::runtime {

void LatencyChannel::send(const Event& ev) {
  ++sent_;
  if (config_.drop_probability > 0.0 && rng_.bernoulli(config_.drop_probability)) {
    ++dropped_;
    return;
  }
  SimDuration delay = config_.base_latency;
  if (config_.jitter > 0) {
    delay += static_cast<SimDuration>(rng_.uniform(0.0, static_cast<double>(config_.jitter)));
  }
  SimTime at = sched_.now() + delay;
  if (config_.preserve_order) {
    at = std::max(at, last_delivery_);
    last_delivery_ = at;
  }
  // [this, slot] fits std::function's inline buffer: no allocation.
  const EventSlots::Index slot = sched_.in_flight().put(ev);
  sched_.schedule_at(at, [this, slot] { deliver(slot); });
}

void LatencyChannel::deliver(EventSlots::Index slot) {
  EventSlots& slots = sched_.in_flight();
  Event& ev = slots[slot];
  ++delivered_;
  ev.timestamp = sched_.now();
  try {
    sink_(ev);
  } catch (...) {
    slots.release(slot);
    throw;
  }
  slots.release(slot);
}

}  // namespace trader::runtime
