#include "statemachine/program.hpp"

#include <algorithm>

namespace trader::statemachine {

namespace {

// Leaf reached from `s` by following initial children.
StateId drill_initial(const StateMachineDef& def, StateId s) {
  while (!def.state(s).children.empty()) s = def.state(s).initial_child;
  return s;
}

}  // namespace

std::shared_ptr<const ModelProgram> ModelProgram::compile(StateMachineDef def) {
  // shared_ptr via new: the constructor is private to force compile().
  std::shared_ptr<ModelProgram> p(new ModelProgram(std::move(def)));
  const StateMachineDef& d = p->def_;

  // Intern event names in sorted order so ids are a pure function of
  // the definition, not of transition declaration order.
  std::vector<std::string> events;
  for (const auto& t : d.transitions()) {
    if (!t.event.empty()) events.push_back(t.event);
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  for (const std::string& name : events) p->event_ids_.intern(name);

  // Pass 1: enumerate leaves and their root paths.
  for (std::size_t i = 0; i < d.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (!d.is_leaf(id)) continue;
    Leaf row;
    row.state = id;
    row.path_begin = static_cast<std::uint32_t>(p->state_pool_.size());
    std::vector<StateId> path;
    for (StateId s = id; s != kNoState; s = d.state(s).parent) path.push_back(s);
    std::reverse(path.begin(), path.end());
    for (StateId s : path) p->state_pool_.push_back(s);
    row.path_len = static_cast<std::uint32_t>(path.size());
    p->max_depth_ = std::max(p->max_depth_, path.size());
    p->leaf_index_[id] = static_cast<int>(p->leaves_.size());
    p->leaves_.push_back(row);
  }

  // Pass 2: per-leaf tables. Candidate order is the UML priority order
  // — innermost source first, then definition order among transitions
  // sharing a source.
  const std::size_t event_count = events.size();
  for (auto& row : p->leaves_) {
    std::vector<const TransitionDef*> candidates;
    const StateId* path = p->state_pool_.data() + row.path_begin;
    for (std::uint32_t depth = row.path_len; depth-- > 0;) {
      std::vector<const TransitionDef*> here;
      for (const auto& t : d.transitions()) {
        if (t.source == path[depth]) here.push_back(&t);
      }
      std::sort(here.begin(), here.end(),
                [](const TransitionDef* a, const TransitionDef* b) { return a->index < b->index; });
      candidates.insert(candidates.end(), here.begin(), here.end());
    }

    row.dispatch_begin = static_cast<std::uint32_t>(p->dispatch_.size());
    p->dispatch_.resize(p->dispatch_.size() + event_count);
    for (std::size_t eid = 0; eid < event_count; ++eid) {
      const std::string& name = events[eid];
      Span span;
      span.begin = static_cast<std::uint32_t>(p->trans_.size());
      for (const TransitionDef* t : candidates) {
        if (t->after > 0 || t->event != name) continue;
        p->trans_.push_back(p->compile_transition(row, *t));
      }
      span.len = static_cast<std::uint32_t>(p->trans_.size()) - span.begin;
      p->dispatch_[row.dispatch_begin + static_cast<std::uint32_t>(eid)] = span;
    }
    row.completions.begin = static_cast<std::uint32_t>(p->trans_.size());
    for (const TransitionDef* t : candidates) {
      if (t->after > 0 || !t->event.empty()) continue;
      p->trans_.push_back(p->compile_transition(row, *t));
    }
    row.completions.len =
        static_cast<std::uint32_t>(p->trans_.size()) - row.completions.begin;
    row.timed.begin = static_cast<std::uint32_t>(p->trans_.size());
    for (const TransitionDef* t : candidates) {
      if (t->after <= 0) continue;
      p->trans_.push_back(p->compile_transition(row, *t));
    }
    row.timed.len = static_cast<std::uint32_t>(p->trans_.size()) - row.timed.begin;
  }

  if (d.top_initial() != kNoState) {
    p->initial_leaf_ = p->leaf_index_.at(drill_initial(d, d.top_initial()));
  }
  return p;
}

ModelProgram::Trans ModelProgram::compile_transition(const Leaf& row,
                                                     const TransitionDef& t) {
  Trans ct;
  ct.def = &t;
  const StateId* path = state_pool_.data() + row.path_begin;
  for (std::uint32_t depth = 0; depth < row.path_len; ++depth) {
    if (path[depth] == t.source) ct.source_depth = static_cast<std::int32_t>(depth);
  }
  if (t.internal) return ct;  // no exits/entries, stays on the same leaf

  // Boundary: the LCA, bumped one level up for self /
  // ancestor-descendant transitions (external semantics).
  StateId lca = t.source;
  while (lca != kNoState && !(def_.is_ancestor(lca, t.source) && def_.is_ancestor(lca, t.target))) {
    lca = def_.state(lca).parent;
  }
  if (lca == t.source || lca == t.target) {
    lca = (lca == kNoState) ? kNoState : def_.state(lca).parent;
  }
  ct.boundary_depth = -1;
  for (std::uint32_t depth = 0; depth < row.path_len; ++depth) {
    if (path[depth] == lca) ct.boundary_depth = static_cast<std::int32_t>(depth);
  }

  // Exits: leaf-first until the boundary. Spans are recorded by index —
  // state_pool_ may reallocate while later transitions compile.
  ct.exits_begin = static_cast<std::uint32_t>(state_pool_.size());
  {
    std::vector<StateId> exits;
    for (std::uint32_t depth = row.path_len; depth-- > 0;) {
      if (path[depth] == lca) break;
      exits.push_back(path[depth]);
    }
    for (StateId s : exits) state_pool_.push_back(s);
    ct.exits_len = static_cast<std::uint32_t>(exits.size());
  }

  // Entries: boundary(exclusive) -> target, then drill to the initial leaf.
  std::vector<StateId> chain;
  for (StateId s = t.target; s != lca && s != kNoState; s = def_.state(s).parent) {
    chain.push_back(s);
  }
  std::reverse(chain.begin(), chain.end());
  StateId cur = t.target;
  while (!def_.state(cur).children.empty()) {
    cur = def_.state(cur).initial_child;
    chain.push_back(cur);
  }
  ct.entries_begin = static_cast<std::uint32_t>(state_pool_.size());
  for (StateId s : chain) state_pool_.push_back(s);
  ct.entries_len = static_cast<std::uint32_t>(chain.size());
  ct.target_leaf = leaf_index_.at(cur);
  return ct;
}

std::size_t ModelProgram::dense_bytes_per_instance() const {
  // One leaf index, max_depth entry times, flags, and a fired counter —
  // the structure-of-arrays slots BatchExecutor allocates per instance.
  return sizeof(std::int32_t) + max_depth_ * sizeof(runtime::SimTime) +
         sizeof(std::uint8_t) + sizeof(std::uint64_t);
}

}  // namespace trader::statemachine
