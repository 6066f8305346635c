// Discrete-event scheduler — the heart of the simulated substrate.
//
// The paper's framework runs on Linux with real processes and sockets;
// this reproduction runs the same architecture under virtual time so that
// latency, jitter and overload are controllable experiment parameters
// rather than noise (see DESIGN.md §2, substitution table).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
/// The queue holds small (time, sequence, slot) keys; the callbacks stay
/// put in a slab of task slots whose addresses survive growth, so a
/// callback may schedule more tasks while it runs. Keys wait in a few
/// monotone runs — FIFO rings, each in ascending (time, sequence)
/// order — in front of a min-heap. A channel's deliveries and a
/// periodic task's re-arms each arrive in ascending order, so a push
/// usually appends to a run and a pop takes a run's front, both in
/// O(1); a key that fits no run goes to the heap. A pop takes the
/// smallest of the heap's top and the runs' fronts, so tasks fire in
/// exactly (time, sequence) order wherever their keys wait.
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
  std::size_t pending() const;

  /// Task slots ever made: the most tasks pending or running at once.
  std::size_t task_slots() const { return tasks_.size(); }

  /// Total callbacks executed, for overhead accounting.
  std::uint64_t executed() const { return executed_; }

  /// Storage for the events that channels on this scheduler hold
  /// between send and delivery; a queued delivery carries only a slot
  /// index, and the slots outlive every task still in the queue.
  EventSlots& in_flight() { return in_flight_; }

 private:
  /// One queue key; keys order by (at, seq), and seq is unique.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    bool operator>(const Key& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  /// Keys in ascending order in a ring that keeps its storage when it
  /// empties, so a steady stream allocates nothing once warm. Kept to
  /// 24 bytes so that a fleet shard, which embeds its scheduler, stays
  /// within glibc's per-thread allocation cache (1032 bytes).
  class Run {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Key& front() const { return ring_[head_]; }
    const Key& back() const { return ring_[(head_ + size_ - 1) & (capacity_ - 1)]; }
    void push_back(const Key& k);
    Key pop_front();
    /// Keep the keys `keep` accepts, in order.
    template <typename Keep>
    void filter(Keep keep);

   private:
    std::unique_ptr<Key[]> ring_;
    std::uint32_t capacity_ = 0;  // zero or a power of two
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
  };

  static constexpr std::size_t kRuns = 4;
  /// Where the earliest key waits: a run's index, kHeap or kEmpty.
  static constexpr std::size_t kHeap = kRuns;
  static constexpr std::size_t kEmpty = kRuns + 1;

  struct Task {
    Callback cb;
    SimDuration period = 0;        ///< 0 = one-shot.
    std::uint32_t generation = 1;  ///< Bumped each time the slot is freed.
    bool cancelled = false;
    bool queued = false;  ///< A key for this task is in the heap.
  };

  TaskHandle add(SimTime at, SimDuration period, Callback cb);
  void push(const Key& k);
  std::size_t earliest() const;
  const Key& peek(std::size_t where) const;
  Key pop(std::size_t where);
  /// Pop the key at `where` and fire its task unless it was cancelled;
  /// true when a callback ran.
  bool run_next(std::size_t where);
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
  std::array<Run, kRuns> runs_;
  std::vector<Key> heap_;      // min-heap on (at, seq): keys that fit no run
  std::size_t dead_keys_ = 0;  // queued keys whose task was cancelled
};

}  // namespace trader::runtime
