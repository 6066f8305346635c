// Discrete-event scheduler — the heart of the simulated substrate.
//
// The paper's framework runs on Linux with real processes and sockets;
// this reproduction runs the same architecture under virtual time so that
// latency, jitter and overload are controllable experiment parameters
// rather than noise (see DESIGN.md §2, substitution table).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::runtime {

/// Handle for cancelling a scheduled callback.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class Scheduler;
  explicit TaskHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant fire in FIFO order of
/// scheduling, which keeps runs reproducible across platforms.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute virtual time `at` (clamped to now).
  TaskHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` to run `delay` after now.
  TaskHandle schedule_after(SimDuration delay, Callback cb);

  /// Schedule `cb` every `period`, first firing after `period`.
  /// Cancel via the returned handle.
  TaskHandle schedule_every(SimDuration period, Callback cb);

  /// Cancel a pending (or periodic) task. Safe to call twice.
  void cancel(TaskHandle h);

  /// Run a single event; returns false when the queue is empty.
  bool step();

  /// Run all events up to and including time `t`, then set now to `t`.
  void run_until(SimTime t);

  /// Run for `d` beyond the current time.
  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Drain the queue completely (only safe when no periodic tasks live).
  void run_all();

  /// Number of pending entries (cancelled entries may still be counted
  /// until they drain).
  std::size_t pending() const { return queue_.size(); }

  /// Total callbacks executed, for overhead accounting.
  std::uint64_t executed() const { return executed_; }

  /// Storage for the events that channels on this scheduler hold
  /// between send and delivery; a queued delivery carries only a slot
  /// index, and the slots outlive every task still in the queue.
  EventSlots& in_flight() { return in_flight_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tiebreak
    std::uint64_t id;
    Callback cb;
    SimDuration period;  // 0 = one-shot

    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  bool is_cancelled(std::uint64_t id) const;
  void push(Entry e);
  Entry pop();
  void fire(Entry e);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  EventSlots in_flight_;      // declared first: destroyed after the queue
  std::vector<Entry> queue_;  // min-heap on (at, seq); entries leave it by move
  std::vector<std::uint64_t> cancelled_;
};

}  // namespace trader::runtime
