// Discrete-event scheduler — the heart of the simulated substrate.
//
// The paper's framework runs on Linux with real processes and sockets;
// this reproduction runs the same architecture under virtual time so that
// latency, jitter and overload are controllable experiment parameters
// rather than noise (see DESIGN.md §2, substitution table).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::runtime {

/// Handle for cancelling a scheduled callback: the task's slot and the
/// slot's generation when the task was scheduled. A slot is reused once
/// its task is done, under the next generation, so a stale handle
/// cancels nothing.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return generation_ != 0; }

 private:
  friend class Scheduler;
  TaskHandle(std::uint32_t slot, std::uint32_t generation) : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant fire in FIFO order of
/// scheduling, which keeps runs reproducible across platforms.
///
/// The queue is a min-heap of small (time, sequence, slot) keys; the
/// callbacks stay put in a slab of task slots whose addresses survive
/// growth, so a callback may schedule more tasks while it runs.
/// Cancelling marks the slot, and its key is dropped when it comes up
/// (or when dead keys outnumber live ones, whichever is first).
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

  /// Cancel a pending (or periodic) task in O(1). Stale, repeated and
  /// default handles are no-ops.
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

  /// Task slots ever made: the most tasks pending or running at once.
  std::size_t task_slots() const { return tasks_.size(); }

  /// Total callbacks executed, for overhead accounting.
  std::uint64_t executed() const { return executed_; }

  /// Storage for the events that channels on this scheduler hold
  /// between send and delivery; a queued delivery carries only a slot
  /// index, and the slots outlive every task still in the queue.
  EventSlots& in_flight() { return in_flight_; }

 private:
  /// One heap key; the heap orders by (at, seq), and seq is unique.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    bool operator>(const Key& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  struct Task {
    Callback cb;
    SimDuration period = 0;        ///< 0 = one-shot.
    std::uint32_t generation = 1;  ///< Bumped each time the slot is freed.
    bool cancelled = false;
    bool queued = false;  ///< A key for this task is in the heap.
  };

  TaskHandle add(SimTime at, SimDuration period, Callback cb);
  void push(Key k);
  Key pop();
  /// Pop the earliest key and fire its task unless it was cancelled;
  /// true when a callback ran.
  bool run_next();
  void fire(const Key& k);
  void release(std::uint32_t slot);
  /// Drop the keys of cancelled tasks and free their slots.
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventSlots in_flight_;       // declared first: destroyed after the tasks
  std::deque<Task> tasks_;     // the slab; a deque keeps addresses on growth
  std::vector<std::uint32_t> free_;
  std::vector<Key> queue_;     // min-heap on (at, seq)
  std::size_t dead_keys_ = 0;  // keys in queue_ whose task was cancelled
};

}  // namespace trader::runtime
