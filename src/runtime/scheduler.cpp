#include "runtime/scheduler.hpp"

#include <algorithm>

namespace trader::runtime {

void Scheduler::push(Key k) {
  queue_.push_back(k);
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Scheduler::Key Scheduler::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  const Key k = queue_.back();
  queue_.pop_back();
  return k;
}

TaskHandle Scheduler::add(SimTime at, SimDuration period, Callback cb) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(tasks_.size());
    tasks_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Task& task = tasks_[slot];
  task.cb = std::move(cb);
  task.period = period;
  task.queued = true;
  push(Key{at, next_seq_++, slot});
  return TaskHandle{slot, task.generation};
}

TaskHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  return add(std::max(at, now_), 0, std::move(cb));
}

TaskHandle Scheduler::schedule_after(SimDuration delay, Callback cb) {
  return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(cb));
}

TaskHandle Scheduler::schedule_every(SimDuration period, Callback cb) {
  return add(now_ + period, period, std::move(cb));
}

void Scheduler::cancel(TaskHandle h) {
  if (!h.valid() || h.slot_ >= tasks_.size()) return;
  Task& task = tasks_[h.slot_];
  if (task.generation != h.generation_ || task.cancelled) return;
  // A running task is freed when its callback returns; a queued one
  // when its key comes up or is compacted away.
  task.cancelled = true;
  if (!task.queued) return;
  ++dead_keys_;
  if (2 * dead_keys_ > queue_.size()) compact();
}

void Scheduler::release(std::uint32_t slot) {
  Task& task = tasks_[slot];
  task.cb = nullptr;
  if (++task.generation == 0) task.generation = 1;  // 0 marks an invalid handle
  task.cancelled = false;
  task.queued = false;
  free_.push_back(slot);
}

void Scheduler::compact() {
  std::size_t kept = 0;
  for (const Key& k : queue_) {
    if (tasks_[k.slot].cancelled) {
      release(k.slot);
    } else {
      queue_[kept++] = k;
    }
  }
  queue_.resize(kept);
  // (at, seq) is a total order, so the rebuilt heap pops exactly as
  // the old one would have.
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
  dead_keys_ = 0;
}

void Scheduler::fire(const Key& k) {
  Task& task = tasks_[k.slot];  // stays put while the callback schedules more
  task.queued = false;
  now_ = k.at;
  ++executed_;
  if (task.period == 0) {
    try {
      task.cb();
    } catch (...) {
      release(k.slot);
      throw;
    }
    release(k.slot);
    return;
  }
  // Re-arm: the next firing's sequence number is taken before the
  // callback runs, so it orders exactly as if it had been queued then,
  // and the task is queued again afterwards — also when it throws —
  // unless the callback cancelled it.
  const Key next{now_ + task.period, next_seq_++, k.slot};
  const auto rearm = [this, &task, next] {
    if (task.cancelled) {
      release(next.slot);
      return;
    }
    task.queued = true;
    push(next);
  };
  try {
    task.cb();
  } catch (...) {
    rearm();
    throw;
  }
  rearm();
}

bool Scheduler::run_next() {
  const Key k = pop();
  if (tasks_[k.slot].cancelled) {
    --dead_keys_;
    release(k.slot);
    return false;
  }
  fire(k);
  return true;
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    if (run_next()) return true;
  }
  return false;
}

void Scheduler::run_until(SimTime t) {
  while (!queue_.empty() && queue_.front().at <= t) run_next();
  now_ = std::max(now_, t);
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace trader::runtime
