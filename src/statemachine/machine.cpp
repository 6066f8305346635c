#include "statemachine/machine.hpp"

#include <algorithm>

namespace trader::statemachine {

namespace {
const SmEvent kNullEvent{};
}  // namespace

StateMachine::StateMachine(const StateMachineDef& def) : def_(def) {}

void StateMachine::reset() {
  vars_.clear();
  active_.clear();
  entered_at_.clear();
  outputs_.clear();
  livelock_ = false;
  fired_ = 0;
}

bool StateMachine::is_active(StateId s) const {
  return std::find(active_.begin(), active_.end(), s) != active_.end();
}

runtime::SimTime StateMachine::entry_time(StateId s) const {
  auto it = entered_at_.find(s);
  return it != entered_at_.end() ? it->second : 0;
}

void StateMachine::run_action(const Action& a, const SmEvent& ev, runtime::SimTime now) {
  if (!a) return;
  ActionEnv env{vars_, ev, now,
                [this, now](const std::string& name, std::map<std::string, runtime::Value> f) {
                  outputs_.push_back(ModelOutput{name, std::move(f), now});
                }};
  a(env);
}

void StateMachine::start(runtime::SimTime now) {
  active_.clear();
  entered_at_.clear();
  if (def_.top_initial() == kNoState) return;  // empty machine
  enter_from(kNoState, def_.top_initial(), kNullEvent, now);
  run_completions(now);
}

void StateMachine::enter_from(StateId boundary, StateId target, const SmEvent& ev,
                              runtime::SimTime now) {
  // Build the chain boundary(exclusive) -> target, top-down.
  std::vector<StateId> chain;
  for (StateId s = target; s != boundary && s != kNoState; s = def_.state(s).parent) {
    chain.push_back(s);
  }
  std::reverse(chain.begin(), chain.end());
  for (StateId s : chain) {
    active_.push_back(s);
    entered_at_[s] = now;
    run_action(def_.state(s).on_entry, ev, now);
  }
  // Drill down to a leaf via initial children.
  StateId cur = target;
  while (!def_.state(cur).children.empty()) {
    const StateId next = def_.state(cur).initial_child;
    active_.push_back(next);
    entered_at_[next] = now;
    run_action(def_.state(next).on_entry, ev, now);
    cur = next;
  }
}

void StateMachine::exit_to(StateId boundary, const SmEvent& ev, runtime::SimTime now) {
  // Exit from the leaf upwards until (excluding) boundary.
  while (!active_.empty() && active_.back() != boundary) {
    const StateId s = active_.back();
    run_action(def_.state(s).on_exit, ev, now);
    entered_at_.erase(s);
    active_.pop_back();
  }
}

const TransitionDef* StateMachine::select_transition(const SmEvent& ev) const {
  // Innermost active state first (UML priority), definition order within
  // one state.
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    const TransitionDef* best = nullptr;
    for (const auto& t : def_.transitions()) {
      if (t.source != *it || t.event != ev.name || t.event.empty()) continue;
      if (t.guard && !t.guard(vars_, ev)) continue;
      if (best == nullptr || t.index < best->index) best = &t;
    }
    if (best != nullptr) return best;
  }
  return nullptr;
}

const TransitionDef* StateMachine::select_completion() const {
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    const TransitionDef* best = nullptr;
    for (const auto& t : def_.transitions()) {
      if (t.source != *it || !t.event.empty() || t.after != 0) continue;
      if (t.guard && !t.guard(vars_, kNullEvent)) continue;
      if (best == nullptr || t.index < best->index) best = &t;
    }
    if (best != nullptr) return best;
  }
  return nullptr;
}

void StateMachine::fire(const TransitionDef& t, const SmEvent& ev, runtime::SimTime now) {
  ++fired_;
  if (t.internal) {
    run_action(t.action, ev, now);
    return;
  }
  // Scope boundary: lowest common ancestor of source and target; for
  // self- and ancestor-transitions, one level above (external semantics).
  StateId lca = t.source;
  while (lca != kNoState && !(def_.is_ancestor(lca, t.source) && def_.is_ancestor(lca, t.target))) {
    lca = def_.state(lca).parent;
  }
  if (lca == t.source || lca == t.target) {
    lca = (lca == kNoState) ? kNoState : def_.state(lca).parent;
  }
  exit_to(lca, ev, now);
  run_action(t.action, ev, now);
  enter_from(lca, t.target, ev, now);
}

void StateMachine::run_completions(runtime::SimTime now) {
  for (int i = 0; i < kMaxMicrosteps; ++i) {
    const TransitionDef* t = select_completion();
    if (t == nullptr) return;
    fire(*t, kNullEvent, now);
  }
  livelock_ = true;
}

bool StateMachine::dispatch(const SmEvent& ev, runtime::SimTime now) {
  if (active_.empty()) return false;
  const TransitionDef* t = select_transition(ev);
  if (t == nullptr) return false;
  fire(*t, ev, now);
  run_completions(now);
  return true;
}

int StateMachine::advance_time(runtime::SimTime now) {
  int fired_count = 0;
  for (int iter = 0; iter < kMaxMicrosteps; ++iter) {
    // Earliest due timed transition across the active configuration;
    // innermost wins ties, then definition order.
    const TransitionDef* best = nullptr;
    runtime::SimTime best_due = 0;
    int best_depth = -1;
    for (std::size_t depth = 0; depth < active_.size(); ++depth) {
      const StateId s = active_[depth];
      for (const auto& t : def_.transitions()) {
        if (t.source != s || t.after <= 0) continue;
        const runtime::SimTime due = entry_time(s) + t.after;
        if (due > now) continue;
        if (t.guard && !t.guard(vars_, kNullEvent)) continue;
        const bool better =
            best == nullptr || due < best_due ||
            (due == best_due && (static_cast<int>(depth) > best_depth ||
                                 (static_cast<int>(depth) == best_depth && t.index < best->index)));
        if (better) {
          best = &t;
          best_due = due;
          best_depth = static_cast<int>(depth);
        }
      }
    }
    if (best == nullptr) return fired_count;
    fire(*best, kNullEvent, best_due);
    run_completions(best_due);
    ++fired_count;
  }
  livelock_ = true;
  return fired_count;
}

runtime::SimTime StateMachine::next_deadline() const {
  runtime::SimTime best = -1;
  for (StateId s : active_) {
    for (const auto& t : def_.transitions()) {
      if (t.source != s || t.after <= 0) continue;
      const runtime::SimTime due = entry_time(s) + t.after;
      if (best < 0 || due < best) best = due;
    }
  }
  return best;
}

bool StateMachine::in(const std::string& name) const {
  for (StateId s : active_) {
    if (def_.state(s).name == name || def_.path(s) == name) return true;
  }
  return false;
}

std::string StateMachine::active_leaf() const {
  if (active_.empty()) return {};
  return def_.path(active_.back());
}

std::vector<std::string> StateMachine::active_path() const {
  std::vector<std::string> out;
  out.reserve(active_.size());
  for (StateId s : active_) out.push_back(def_.path(s));
  return out;
}

std::vector<ModelOutput> StateMachine::drain_outputs() {
  std::vector<ModelOutput> out;
  out.swap(outputs_);
  return out;
}

}  // namespace trader::statemachine
