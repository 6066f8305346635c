#include "runtime/mailbox.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace trader::runtime {

MailboxEntry& Mailbox::claim() {
  if (draining_) return held_.emplace_back();
  if (live_ == slots_.size()) slots_.emplace_back();
  return slots_[live_++];
}

void Mailbox::push(MailboxEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  claim() = std::move(entry);
}

void Mailbox::push(const Event& ev, SimTime sent_at, std::uint32_t source, std::uint64_t seq,
                   std::uint32_t topic) {
  std::lock_guard<std::mutex> lock(mu_);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  MailboxEntry& slot = claim();
  slot.event = ev;  // copy-assignment reuses the slot's strings and nodes
  slot.sent_at = sent_at;
  slot.source = source;
  slot.seq = seq;
  slot.topic = topic;
}

Mailbox::Drained Mailbox::drain() {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) throw std::logic_error("Mailbox::drain: a drain is already in progress");
    for (auto& entry : held_) claim() = std::move(entry);
    held_.clear();
    draining_ = true;
    n = std::exchange(live_, 0);
  }
  // Producers leave slots_ alone until end_drain(), so no lock is needed.
  const auto first = slots_.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  const auto before = [](const MailboxEntry& a, const MailboxEntry& b) {
    return std::tie(a.sent_at, a.source, a.seq) < std::tie(b.sent_at, b.source, b.seq);
  };
  if (!std::is_sorted(first, last, before)) std::sort(first, last, before);
  return Drained(*this, first, last);
}

void Mailbox::end_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = false;  // held_ joins the slots at the next drain
}

}  // namespace trader::runtime
