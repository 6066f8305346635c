#include "statemachine/checker.hpp"

#include <algorithm>
#include <queue>
#include <set>

namespace trader::statemachine {

const char* to_string(IssueKind kind) {
  switch (kind) {
    case IssueKind::kUnreachableState:
      return "unreachable-state";
    case IssueKind::kNondeterministicChoice:
      return "nondeterministic-choice";
    case IssueKind::kCompletionLivelock:
      return "completion-livelock";
    case IssueKind::kSinkState:
      return "sink-state";
    case IssueKind::kShadowedTransition:
      return "shadowed-transition";
  }
  return "?";
}

std::size_t CheckReport::error_count() const {
  return static_cast<std::size_t>(std::count_if(
      issues.begin(), issues.end(),
      [](const ModelIssue& i) { return i.severity == IssueSeverity::kError; }));
}

std::size_t CheckReport::warning_count() const { return issues.size() - error_count(); }

bool CheckReport::has(IssueKind kind) const {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const ModelIssue& i) { return i.kind == kind; });
}

std::vector<StateId> ModelChecker::reachable_states(const StateMachineDef& def) const {
  std::set<StateId> seen;
  std::queue<StateId> work;

  // Entering a state makes its ancestors active and drills into initial
  // children; model that closure.
  auto enter = [&](StateId s) {
    StateId cur = s;
    while (cur != kNoState && seen.insert(cur).second) {
      work.push(cur);
      cur = def.state(cur).parent;
    }
    cur = s;
    while (!def.state(cur).children.empty()) {
      const StateId next = def.state(cur).initial_child;
      if (seen.insert(next).second) work.push(next);
      cur = next;
    }
  };

  if (def.top_initial() != kNoState) enter(def.top_initial());

  while (!work.empty()) {
    const StateId s = work.front();
    work.pop();
    for (const auto& t : def.transitions()) {
      if (t.source != s || t.internal) continue;
      // Guard assumed satisfiable (optimistic).
      if (seen.count(t.target) == 0 || true) enter(t.target);
    }
  }
  std::vector<StateId> out(seen.begin(), seen.end());
  return out;
}

void ModelChecker::check_reachability(const StateMachineDef& def, CheckReport& out) const {
  const auto reach = reachable_states(def);
  const std::set<StateId> set(reach.begin(), reach.end());
  for (std::size_t i = 0; i < def.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (set.count(id) == 0) {
      out.issues.push_back(ModelIssue{IssueSeverity::kError, IssueKind::kUnreachableState,
                                      def.path(id),
                                      "state is unreachable from the initial configuration"});
    }
  }
}

void ModelChecker::check_determinism(const StateMachineDef& def, CheckReport& out) const {
  // Two guard-less transitions from the same source on the same trigger:
  // the second can never be intended, and if it was, the model is
  // nondeterministic in spirit (we resolve by definition order).
  const auto& ts = def.transitions();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    for (std::size_t j = i + 1; j < ts.size(); ++j) {
      if (ts[i].source != ts[j].source) continue;
      if (ts[i].event != ts[j].event) continue;
      if (ts[i].after != ts[j].after) continue;
      if (ts[i].guard || ts[j].guard) continue;
      out.issues.push_back(ModelIssue{
          IssueSeverity::kWarning, IssueKind::kNondeterministicChoice,
          def.path(ts[i].source) + " on '" + (ts[i].event.empty() ? "<completion>" : ts[i].event) +
              "'",
          "two unguarded transitions compete; definition order decides"});
    }
  }
}

void ModelChecker::check_completion_cycles(const StateMachineDef& def, CheckReport& out) const {
  // A cycle of unguarded, untimed completion transitions is a guaranteed
  // run-to-completion livelock.
  const auto n = def.states().size();
  std::vector<std::vector<StateId>> adj(n);
  for (const auto& t : def.transitions()) {
    if (!t.event.empty() || t.after != 0 || t.internal) continue;
    if (t.guard) continue;  // guarded: not *guaranteed* to loop
    adj[static_cast<std::size_t>(t.source)].push_back(t.target);
  }
  // DFS cycle detection.
  std::vector<int> mark(n, 0);  // 0=unseen 1=active 2=done
  std::vector<StateId> stack;
  bool found = false;
  std::string cycle_at;
  auto dfs = [&](auto&& self, StateId s) -> void {
    if (found) return;
    mark[static_cast<std::size_t>(s)] = 1;
    for (StateId t : adj[static_cast<std::size_t>(s)]) {
      // Completion out of a composite applies when inside it; treat the
      // target's drill-down as reaching the target state itself.
      if (mark[static_cast<std::size_t>(t)] == 1) {
        found = true;
        cycle_at = def.path(t);
        return;
      }
      if (mark[static_cast<std::size_t>(t)] == 0) self(self, t);
    }
    mark[static_cast<std::size_t>(s)] = 2;
  };
  for (std::size_t i = 0; i < n && !found; ++i) {
    if (mark[i] == 0) dfs(dfs, static_cast<StateId>(i));
  }
  if (found) {
    out.issues.push_back(ModelIssue{IssueSeverity::kError, IssueKind::kCompletionLivelock,
                                    cycle_at,
                                    "cycle of unguarded completion transitions (livelock)"});
  }
}

void ModelChecker::check_sinks(const StateMachineDef& def, CheckReport& out) const {
  // A leaf with no outgoing transitions on itself or any ancestor can
  // never be left; flag unless it is the only state (trivial machine).
  if (def.states().size() <= 1) return;
  for (std::size_t i = 0; i < def.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (!def.is_leaf(id)) continue;
    bool has_exit = false;
    for (const auto& t : def.transitions()) {
      if (t.internal) continue;
      if (def.is_ancestor(t.source, id)) {
        has_exit = true;
        break;
      }
    }
    if (!has_exit) {
      out.issues.push_back(ModelIssue{IssueSeverity::kWarning, IssueKind::kSinkState,
                                      def.path(id), "leaf state has no way out (final state?)"});
    }
  }
}

void ModelChecker::check_shadowing(const StateMachineDef& def, CheckReport& out) const {
  // An unguarded transition on event e in a descendant shadows an
  // ancestor's transition on e whenever the descendant is active; warn
  // only when the ancestor transition could never fire from any leaf,
  // i.e. every leaf under the ancestor has an unguarded closer handler.
  const auto& ts = def.transitions();
  for (const auto& outer : ts) {
    if (outer.event.empty()) continue;
    if (def.is_leaf(outer.source)) continue;
    bool all_shadowed = true;
    bool any_leaf = false;
    for (std::size_t i = 0; i < def.states().size(); ++i) {
      const auto leaf = static_cast<StateId>(i);
      if (!def.is_leaf(leaf) || !def.is_ancestor(outer.source, leaf)) continue;
      any_leaf = true;
      bool shadowed_here = false;
      for (const auto& inner : ts) {
        if (&inner == &outer || inner.event != outer.event || inner.guard) continue;
        if (inner.source == outer.source) continue;
        if (def.is_ancestor(outer.source, inner.source) && def.is_ancestor(inner.source, leaf)) {
          shadowed_here = true;
          break;
        }
      }
      if (!shadowed_here) {
        all_shadowed = false;
        break;
      }
    }
    if (any_leaf && all_shadowed) {
      out.issues.push_back(ModelIssue{IssueSeverity::kWarning, IssueKind::kShadowedTransition,
                                      def.path(outer.source) + " on '" + outer.event + "'",
                                      "transition is shadowed by inner handlers from every leaf"});
    }
  }
}

CheckReport ModelChecker::check(const StateMachineDef& def) const {
  CheckReport report;
  check_reachability(def, report);
  check_determinism(def, report);
  check_completion_cycles(def, report);
  check_sinks(def, report);
  check_shadowing(def, report);
  return report;
}

}  // namespace trader::statemachine
