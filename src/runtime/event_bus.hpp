// Topic-based publish/subscribe bus.
//
// Mirrors the publish-subscribe coupling used by the middleware approach
// the paper cites ([14] Parekh et al.) and by the Trader framework's
// observer wiring: SUO components publish input/output events; observers
// subscribe by topic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/symbol_table.hpp"

namespace trader::runtime {

/// Subscription handle for unsubscribing. It knows its topic, so
/// unsubscribing costs one topic's subscribers, not the whole bus.
class Subscription {
 public:
  Subscription() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class EventBus;
  Subscription(std::uint64_t id, std::uint32_t topic) : id_(id), topic_(topic) {}
  std::uint64_t id_ = 0;
  std::uint32_t topic_ = 0;  ///< Index into the bus's topic table.
};

/// Synchronous topic bus. Delivery order is subscription order, which
/// keeps simulations deterministic.
///
/// A handler may (un)subscribe during delivery. The delivery in progress
/// is unaffected: a subscriber added meanwhile does not see the event,
/// and one removed meanwhile still does. Publishing copies nothing; an
/// edit made while any delivery runs goes to a copy of the topic's list
/// (copy-on-write), and the list being walked is kept until the
/// outermost publish returns.
class EventBus {
 public:
  using Handler = std::function<void(const Event&)>;
  using TopicIndex = SymbolTable::Id;

  /// Index of the wildcard (empty) topic, whose subscribers see every
  /// event after the topic's own subscribers.
  static constexpr TopicIndex kWildcard = 0;

  EventBus();

  /// The index of `topic`, added with no subscribers when new. Indices
  /// are stable for the bus's lifetime, so a router resolves a topic
  /// once and publishes by index afterwards.
  TopicIndex topic(const std::string& topic);

  /// Subscribe to an exact topic. The empty topic subscribes to all.
  Subscription subscribe(const std::string& topic, Handler handler);

  /// Remove a subscription. Stale and repeated handles are no-ops.
  void unsubscribe(const Subscription& sub);

  /// Deliver an event to topic subscribers, then wildcard subscribers.
  void publish(const Event& ev);
  /// The same, for an event whose topic was resolved by topic(): no
  /// lookup. `index` must be topic(ev.topic).
  void publish(TopicIndex index, const Event& ev);

  /// Number of events published over the bus lifetime.
  std::uint64_t published() const { return published_; }

  /// Number of live subscriptions.
  std::size_t subscriber_count() const;

 private:
  struct Entry {
    std::uint64_t id;
    Handler handler;
  };
  using Handlers = std::vector<Entry>;

  void deliver(TopicIndex index, const Event& ev);
  /// The list to edit: in place, or a fresh copy while a delivery runs.
  Handlers& writable(Handlers& list);

  // Topics are never erased, and a deque keeps a Handlers& valid while
  // later subscriptions add topics. topics_[i] holds the subscribers of
  // the topic with id i in index_; the wildcard "" is interned first.
  SymbolTable index_;
  std::deque<Handlers> topics_;
  std::vector<Handlers> retired_;  ///< Lists replaced mid-delivery.
  std::uint32_t depth_ = 0;        ///< Nested publish() calls.
  std::uint64_t next_id_ = 1;
  std::uint64_t published_ = 0;
};

}  // namespace trader::runtime
