// MPSC cross-shard mailbox.
//
// In the sharded fleet each shard owns a private Scheduler + EventBus so
// the hot tick path never takes a lock; the only synchronized structure
// is this mailbox, touched exclusively for events that cross a shard
// boundary. Producers (other shards' worker threads, or the fleet driver
// thread) push under a mutex; the owning shard drains at an epoch
// barrier. Draining sorts by (virtual send time, source id, per-source
// sequence), which makes delivery order a pure function of the virtual
// timeline — never of thread interleaving — and is what keeps fleet runs
// bit-reproducible regardless of shard count.
//
// The box recycles its slots: a producer copies into a slot whose
// strings and field nodes an earlier event left behind, and the owner
// sorts and consumes the slots in place, so a steady stream allocates
// nothing and every node stays with the shard that reuses it. The slot
// count is the most entries ever pending at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"

namespace trader::runtime {

/// One in-flight cross-shard event.
struct MailboxEntry {
  /// `topic` value of an entry whose bus topic index is not known.
  static constexpr std::uint32_t kUnresolvedTopic = 0xffffffffu;

  Event event;
  SimTime sent_at = 0;      ///< Virtual time at the publishing shard.
  std::uint32_t source = 0; ///< Shard index, or Mailbox::kExternalSource.
  std::uint64_t seq = 0;    ///< Per-source monotonic sequence.
  /// The event's topic index on the owning shard's EventBus, resolved
  /// once by the router so delivery needs no lookup.
  std::uint32_t topic = kUnresolvedTopic;
};

class Mailbox {
 public:
  /// Producer id for events injected from outside any shard.
  static constexpr std::uint32_t kExternalSource = 0xffffffffu;

  class Drained;

  /// Multi-producer push (any thread).
  void push(MailboxEntry entry);
  /// Multi-producer push that copies `ev` into a recycled slot.
  void push(const Event& ev, SimTime sent_at, std::uint32_t source, std::uint64_t seq,
            std::uint32_t topic = MailboxEntry::kUnresolvedTopic);

  /// Single-consumer drain: the pending entries, sorted in place into
  /// deterministic (sent_at, source, seq) order. The box counts as empty
  /// from here on; the entries stay valid, and pushes made meanwhile are
  /// held back, until the returned view is destroyed. Iterate it
  /// directly: `for (auto& e : box.drain()) ...`.
  Drained drain();

  std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }

 private:
  MailboxEntry& claim();  // mu_ held
  void end_drain();

  using Slots = std::deque<MailboxEntry>;  // grows without a vector's spare half

  std::mutex mu_;
  Slots slots_;  ///< [0, live_) pending; the rest recycled.
  std::size_t live_ = 0;
  bool draining_ = false;
  std::vector<MailboxEntry> held_;  ///< Pushed during a drain; pending for the next.
  std::atomic<std::uint64_t> pushed_{0};
};

/// The entries of one drain, in delivery order (see Mailbox::drain).
class Mailbox::Drained {
 public:
  Drained(const Drained&) = delete;
  Drained& operator=(const Drained&) = delete;
  ~Drained() { box_.end_drain(); }

  Slots::iterator begin() const { return first_; }
  Slots::iterator end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  MailboxEntry& operator[](std::size_t i) const { return first_[static_cast<std::ptrdiff_t>(i)]; }

 private:
  friend class Mailbox;
  Drained(Mailbox& box, Slots::iterator first, Slots::iterator last)
      : box_(box), first_(first), last_(last) {}

  Mailbox& box_;
  Slots::iterator first_;
  Slots::iterator last_;
};

}  // namespace trader::runtime
