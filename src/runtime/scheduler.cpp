#include "runtime/scheduler.hpp"

#include <algorithm>

namespace trader::runtime {

void Scheduler::Run::push_back(const Key& k) {
  if (size_ == capacity_) {
    // Double the ring, unrolling it from its head.
    const std::uint32_t grown_capacity = std::max<std::uint32_t>(16, 2 * capacity_);
    auto grown = std::make_unique<Key[]>(grown_capacity);
    for (std::uint32_t i = 0; i < size_; ++i) grown[i] = ring_[(head_ + i) & (capacity_ - 1)];
    ring_ = std::move(grown);
    capacity_ = grown_capacity;
    head_ = 0;
  }
  ring_[(head_ + size_++) & (capacity_ - 1)] = k;
}

Scheduler::Key Scheduler::Run::pop_front() {
  const Key k = ring_[head_];
  head_ = (head_ + 1) & (capacity_ - 1);
  --size_;
  return k;
}

template <typename Keep>
void Scheduler::Run::filter(Keep keep) {
  const std::uint32_t mask = capacity_ - 1;
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    const Key k = ring_[(head_ + i) & mask];
    if (keep(k)) ring_[(head_ + kept++) & mask] = k;
  }
  size_ = kept;
}

void Scheduler::push(const Key& k) {
  // Best fit: append to the run whose last key is the largest one below
  // k, which leaves the other runs open for keys that fit nowhere else;
  // open an empty run when none fits, and fall back to the heap when all
  // are in use.
  Run* best = nullptr;
  Run* open = nullptr;
  for (Run& run : runs_) {
    if (run.empty()) {
      if (open == nullptr) open = &run;
    } else if (k > run.back() && (best == nullptr || run.back() > best->back())) {
      best = &run;
    }
  }
  if (best == nullptr) best = open;
  if (best != nullptr) {
    best->push_back(k);
    return;
  }
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::size_t Scheduler::earliest() const {
  std::size_t where = heap_.empty() ? kEmpty : kHeap;
  const Key* first = heap_.empty() ? nullptr : &heap_.front();
  for (std::size_t r = 0; r < kRuns; ++r) {
    if (runs_[r].empty()) continue;
    const Key& front = runs_[r].front();
    if (first == nullptr || *first > front) {
      first = &front;
      where = r;
    }
  }
  return where;
}

const Scheduler::Key& Scheduler::peek(std::size_t where) const {
  return where == kHeap ? heap_.front() : runs_[where].front();
}

Scheduler::Key Scheduler::pop(std::size_t where) {
  if (where != kHeap) return runs_[where].pop_front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Key k = heap_.back();
  heap_.pop_back();
  return k;
}

std::size_t Scheduler::pending() const {
  std::size_t n = heap_.size();
  for (const Run& run : runs_) n += run.size();
  return n;
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
  if (2 * dead_keys_ > pending()) compact();
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
  const auto live = [this](const Key& k) {
    if (!tasks_[k.slot].cancelled) return true;
    release(k.slot);
    return false;
  };
  // A run keeps its order when keys leave it.
  for (Run& run : runs_) run.filter(live);
  std::size_t kept = 0;
  for (const Key& k : heap_) {
    if (live(k)) heap_[kept++] = k;
  }
  heap_.resize(kept);
  // (at, seq) is a total order, so the rebuilt heap pops exactly as
  // the old one would have.
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
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

bool Scheduler::run_next(std::size_t where) {
  const Key k = pop(where);
  if (tasks_[k.slot].cancelled) {
    --dead_keys_;
    release(k.slot);
    return false;
  }
  fire(k);
  return true;
}

bool Scheduler::step() {
  for (std::size_t where = earliest(); where != kEmpty; where = earliest()) {
    if (run_next(where)) return true;
  }
  return false;
}

void Scheduler::run_until(SimTime t) {
  for (std::size_t where = earliest(); where != kEmpty && peek(where).at <= t;
       where = earliest()) {
    run_next(where);
  }
  now_ = std::max(now_, t);
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace trader::runtime
