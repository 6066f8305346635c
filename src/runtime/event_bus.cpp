#include "runtime/event_bus.hpp"

#include <algorithm>

namespace trader::runtime {

EventBus::EventBus() { topic(std::string()); }

EventBus::TopicIndex EventBus::topic(const std::string& topic) {
  const TopicIndex index = index_.intern(topic);
  if (index == topics_.size()) topics_.emplace_back();
  return index;
}

Subscription EventBus::subscribe(const std::string& topic, Handler handler) {
  const TopicIndex index = this->topic(topic);
  const std::uint64_t id = next_id_++;
  writable(topics_[index]).push_back(Entry{id, std::move(handler)});
  return Subscription{id, index};
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

void EventBus::deliver(TopicIndex index, const Event& ev) {
  const Handlers& list = topics_[index];
  // Walk the buffer as it is now; edits meanwhile go to a copy.
  const Entry* const end = list.data() + list.size();
  for (const Entry* e = list.data(); e != end; ++e) e->handler(ev);
}

void EventBus::publish(const Event& ev) {
  // A topic nobody ever subscribed to reaches the wildcard list only.
  const TopicIndex index = index_.find(ev.topic);
  publish(index == SymbolTable::kNone ? kWildcard : index, ev);
}

void EventBus::publish(TopicIndex index, const Event& ev) {
  ++published_;
  ++depth_;
  struct Done {
    EventBus& bus;
    ~Done() {
      if (--bus.depth_ == 0) bus.retired_.clear();
    }
  } done{*this};
  if (index != kWildcard) deliver(index, ev);
  deliver(kWildcard, ev);
}

std::size_t EventBus::subscriber_count() const {
  std::size_t n = 0;
  for (const Handlers& list : topics_) n += list.size();
  return n;
}

}  // namespace trader::runtime
