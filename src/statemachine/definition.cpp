#include "statemachine/definition.hpp"

namespace trader::statemachine {

void StateMachineDef::check_state(StateId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= states_.size()) {
    throw std::invalid_argument("StateMachineDef(" + name_ + "): invalid state id " +
                                std::to_string(id));
  }
}

StateId StateMachineDef::add_state(const std::string& name, StateId parent) {
  if (parent != kNoState) check_state(parent);
  if (name.empty()) throw std::invalid_argument("state name must not be empty");
  const auto id = static_cast<StateId>(states_.size());
  StateDef def;
  def.name = name;
  def.parent = parent;
  states_.push_back(std::move(def));
  if (parent != kNoState) {
    auto& p = states_[static_cast<std::size_t>(parent)];
    p.children.push_back(id);
    if (p.initial_child == kNoState) p.initial_child = id;
  } else if (top_initial_ == kNoState) {
    top_initial_ = id;
  }
  return id;
}

void StateMachineDef::set_initial(StateId parent, StateId child) {
  check_state(parent);
  check_state(child);
  if (states_[static_cast<std::size_t>(child)].parent != parent) {
    throw std::invalid_argument("set_initial: child " + path(child) + " is not a child of " +
                                path(parent));
  }
  states_[static_cast<std::size_t>(parent)].initial_child = child;
}

void StateMachineDef::on_entry(StateId state, Action a) {
  check_state(state);
  states_[static_cast<std::size_t>(state)].on_entry = std::move(a);
}

void StateMachineDef::on_exit(StateId state, Action a) {
  check_state(state);
  states_[static_cast<std::size_t>(state)].on_exit = std::move(a);
}

int StateMachineDef::add_transition(StateId source, StateId target, const std::string& event,
                                    Guard guard, Action action) {
  check_state(source);
  check_state(target);
  if (event.empty()) throw std::invalid_argument("use add_completion for eventless transitions");
  TransitionDef t;
  t.source = source;
  t.target = target;
  t.event = event;
  t.guard = std::move(guard);
  t.action = std::move(action);
  t.index = static_cast<int>(transitions_.size());
  transitions_.push_back(std::move(t));
  return t.index;
}

int StateMachineDef::add_internal(StateId source, const std::string& event, Guard guard,
                                  Action action) {
  check_state(source);
  if (event.empty()) throw std::invalid_argument("internal transition requires an event");
  TransitionDef t;
  t.source = source;
  t.target = kNoState;
  t.event = event;
  t.internal = true;
  t.guard = std::move(guard);
  t.action = std::move(action);
  t.index = static_cast<int>(transitions_.size());
  transitions_.push_back(std::move(t));
  return t.index;
}

int StateMachineDef::add_timed(StateId source, StateId target, runtime::SimDuration after,
                               Guard guard, Action action) {
  check_state(source);
  check_state(target);
  if (after <= 0) throw std::invalid_argument("timed transition requires after > 0");
  TransitionDef t;
  t.source = source;
  t.target = target;
  t.after = after;
  t.guard = std::move(guard);
  t.action = std::move(action);
  t.index = static_cast<int>(transitions_.size());
  transitions_.push_back(std::move(t));
  return t.index;
}

int StateMachineDef::add_completion(StateId source, StateId target, Guard guard, Action action) {
  check_state(source);
  check_state(target);
  TransitionDef t;
  t.source = source;
  t.target = target;
  t.guard = std::move(guard);
  t.action = std::move(action);
  t.index = static_cast<int>(transitions_.size());
  transitions_.push_back(std::move(t));
  return t.index;
}

void StateMachineDef::set_top_initial(StateId state) {
  check_state(state);
  if (states_[static_cast<std::size_t>(state)].parent != kNoState) {
    throw std::invalid_argument("top initial state must be top-level");
  }
  top_initial_ = state;
}

StateId StateMachineDef::find_state(const std::string& name) const {
  // Accept both bare names and dotted paths.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (states_[i].name == name || path(id) == name) return id;
  }
  return kNoState;
}

bool StateMachineDef::is_ancestor(StateId maybe_ancestor, StateId s) const {
  StateId cur = s;
  while (cur != kNoState) {
    if (cur == maybe_ancestor) return true;
    cur = states_[static_cast<std::size_t>(cur)].parent;
  }
  return false;
}

std::string StateMachineDef::path(StateId id) const {
  check_state(id);
  std::string out = states_[static_cast<std::size_t>(id)].name;
  StateId cur = states_[static_cast<std::size_t>(id)].parent;
  while (cur != kNoState) {
    out = states_[static_cast<std::size_t>(cur)].name + "." + out;
    cur = states_[static_cast<std::size_t>(cur)].parent;
  }
  return out;
}

}  // namespace trader::statemachine
