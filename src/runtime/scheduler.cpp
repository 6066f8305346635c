#include "runtime/scheduler.hpp"

#include <algorithm>

namespace trader::runtime {

void Scheduler::push(Entry e) {
  queue_.push_back(std::move(e));
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Scheduler::Entry Scheduler::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Entry e = std::move(queue_.back());
  queue_.pop_back();
  return e;
}

TaskHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  const std::uint64_t id = next_id_++;
  push(Entry{std::max(at, now_), next_seq_++, id, std::move(cb), 0});
  return TaskHandle{id};
}

TaskHandle Scheduler::schedule_after(SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(cb));
}

TaskHandle Scheduler::schedule_every(SimDuration period, Callback cb) {
  const std::uint64_t id = next_id_++;
  push(Entry{now_ + period, next_seq_++, id, std::move(cb), period});
  return TaskHandle{id};
}

void Scheduler::cancel(TaskHandle h) {
  if (h.valid()) cancelled_.push_back(h.id_);
}

bool Scheduler::is_cancelled(std::uint64_t id) const {
  return std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end();
}

void Scheduler::fire(Entry e) {
  now_ = e.at;
  ++executed_;
  if (e.period == 0) {
    e.cb();
    return;
  }
  // Re-arm in place: the next firing's sequence number is taken before
  // the callback runs, so it orders exactly as if it had been queued
  // then, and the callback moves back into the queue afterwards — also
  // when it throws. A callback that cancels its own handle is dropped
  // when the re-armed entry comes up.
  e.at = now_ + e.period;
  e.seq = next_seq_++;
  try {
    e.cb();
  } catch (...) {
    push(std::move(e));
    throw;
  }
  push(std::move(e));
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    Entry e = pop();
    if (is_cancelled(e.id)) {
      // Drop cancelled one-shots and periodics alike; periodics were
      // re-armed only when fired, so no further cleanup is needed.
      continue;
    }
    fire(std::move(e));
    return true;
  }
  return false;
}

void Scheduler::run_until(SimTime t) {
  while (!queue_.empty() && queue_.front().at <= t) {
    Entry e = pop();
    if (is_cancelled(e.id)) continue;
    fire(std::move(e));
  }
  now_ = std::max(now_, t);
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace trader::runtime
