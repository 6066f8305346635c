#include "runtime/event_bus.hpp"

#include <algorithm>

namespace trader::runtime {

Subscription EventBus::subscribe(const std::string& topic, Handler handler) {
  const auto [it, added] = index_.try_emplace(topic, static_cast<std::uint32_t>(topics_.size()));
  if (added) topics_.emplace_back();
  const std::uint64_t id = next_id_++;
  writable(topics_[it->second]).push_back(Entry{id, std::move(handler)});
  return Subscription{id, it->second};
}

void EventBus::unsubscribe(const Subscription& sub) {
  if (!sub.valid() || sub.topic_ >= topics_.size()) return;
  Handlers& list = topics_[sub.topic_];
  const auto pos = std::find_if(list.begin(), list.end(),
                                [&](const Entry& e) { return e.id == sub.id_; });
  if (pos == list.end()) return;  // stale or repeated handle
  const auto index = pos - list.begin();
  Handlers& edit = writable(list);
  edit.erase(edit.begin() + index);
}

EventBus::Handlers& EventBus::writable(Handlers& list) {
  if (depth_ > 0) {
    // A walk may hold this buffer; moving the vector keeps the buffer.
    retired_.push_back(std::move(list));
    list = retired_.back();
  }
  return list;
}

void EventBus::deliver(const std::string& topic, const Event& ev) {
  auto it = index_.find(topic);
  if (it == index_.end()) return;
  const Handlers& list = topics_[it->second];
  // Walk the buffer as it is now; edits meanwhile go to a copy.
  const Entry* const end = list.data() + list.size();
  for (const Entry* e = list.data(); e != end; ++e) e->handler(ev);
}

void EventBus::publish(const Event& ev) {
  ++published_;
  ++depth_;
  struct Done {
    EventBus& bus;
    ~Done() {
      if (--bus.depth_ == 0) bus.retired_.clear();
    }
  } done{*this};
  deliver(ev.topic, ev);
  if (!ev.topic.empty()) deliver(std::string(), ev);
}

std::size_t EventBus::subscriber_count() const {
  std::size_t n = 0;
  for (const Handlers& list : topics_) n += list.size();
  return n;
}

}  // namespace trader::runtime
