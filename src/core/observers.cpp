#include "core/observers.hpp"

namespace trader::core {

namespace {

/// The non-empty string "key" field that names the model event, or
/// nullptr when the event's own name and fields are used.
const std::string* input_key(const runtime::Event& ev) {
  auto it = ev.fields.find("key");
  const auto* key = it == ev.fields.end() ? nullptr : std::get_if<std::string>(&it->second);
  return key != nullptr && !key->empty() ? key : nullptr;
}

/// default_output_mapper's value: the "value" field, or nullptr.
const runtime::Value* output_value(const runtime::Event& ev) {
  auto it = ev.fields.find("value");
  return it == ev.fields.end() ? nullptr : &it->second;
}

}  // namespace

std::optional<statemachine::SmEvent> default_input_mapper(const runtime::Event& ev) {
  statemachine::SmEvent sm;
  if (const std::string* key = input_key(ev)) {
    sm.name = *key;
  } else {
    sm.name = ev.name;
    sm.params = ev.fields;
  }
  return sm;
}

std::optional<std::pair<std::string, runtime::Value>> default_output_mapper(
    const runtime::Event& ev) {
  const runtime::Value* v = output_value(ev);
  if (v == nullptr) return std::nullopt;
  return std::make_pair(ev.name, *v);
}

// ------------------------------------------------------------- InputObserver

InputObserver::InputObserver(runtime::Scheduler& sched, runtime::EventBus& bus,
                             std::string topic, runtime::ChannelConfig channel,
                             InputMapper mapper, Sink sink)
    : sched_(sched),
      bus_(bus),
      topic_(std::move(topic)),
      mapper_(std::move(mapper)),
      sink_(std::move(sink)),
      channel_(sched, runtime::Rng(0x1111), channel,
               [this](runtime::Event& ev) { deliver(ev); }) {}

void InputObserver::deliver(runtime::Event& ev) {
  if (mapper_) {
    if (auto sm = mapper_(ev); sm && sink_) sink_(*sm, sched_.now());
    return;
  }
  // default_input_mapper without the copy: the model event borrows the
  // name and fields from the channel's slot and hands them back, so the
  // slot keeps its storage for the next event.
  statemachine::SmEvent sm;
  const std::string* key = input_key(ev);
  if (key != nullptr) {
    sm.name = *key;
  } else {
    sm.name.swap(ev.name);
    sm.params.swap(ev.fields);
  }
  if (sink_) sink_(sm, sched_.now());
  if (key == nullptr) {
    ev.name.swap(sm.name);
    ev.fields.swap(sm.params);
  }
}

void InputObserver::start(runtime::SimTime) {
  sub_ = bus_.subscribe(topic_, [this](const runtime::Event& ev) {
    ++observed_;
    channel_.send(ev);
  });
}

void InputObserver::stop() { bus_.unsubscribe(sub_); }

// ------------------------------------------------------------ OutputObserver

OutputObserver::OutputObserver(runtime::Scheduler& sched, runtime::EventBus& bus,
                               std::vector<std::string> topics, runtime::ChannelConfig channel,
                               OutputMapper mapper, ObservableTable& observables)
    : sched_(sched),
      bus_(bus),
      topics_(std::move(topics)),
      mapper_(std::move(mapper)),
      channel_(sched, runtime::Rng(0x2222), channel,
               [this](const runtime::Event& ev) { deliver(ev); }),
      table_(observables) {}

void OutputObserver::start(runtime::SimTime) {
  for (const auto& topic : topics_) {
    subs_.push_back(bus_.subscribe(topic, [this](const runtime::Event& ev) {
      ++observed_;
      channel_.send(ev);
    }));
  }
}

void OutputObserver::stop() {
  for (auto& s : subs_) bus_.unsubscribe(s);
  subs_.clear();
}

void OutputObserver::deliver(const runtime::Event& ev) {
  if (!mapper_) {
    if (const runtime::Value* v = output_value(ev)) record(ev.name, *v);
  } else if (auto mapped = mapper_(ev)) {
    record(mapped->first, mapped->second);
  }
}

void OutputObserver::record(const std::string& observable, const runtime::Value& value) {
  // The one name lookup of an output event: everything after it is by id.
  const ObservableId id = table_.intern(observable);
  table_.row(id).observed = Observation{value, sched_.now()};
  if (fresh_) fresh_(id, sched_.now());
}

}  // namespace trader::core
