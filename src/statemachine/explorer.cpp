#include "statemachine/explorer.hpp"

#include <algorithm>
#include <set>

#include "runtime/rng.hpp"
#include "statemachine/machine.hpp"

namespace trader::statemachine {

std::vector<std::string> event_alphabet(const StateMachineDef& def) {
  std::set<std::string> names;
  for (const auto& t : def.transitions()) {
    if (!t.event.empty()) names.insert(t.event);
  }
  return {names.begin(), names.end()};
}

ExplorationReport RandomWalkExplorer::explore(const StateMachineDef& def) const {
  ExplorationReport report;
  report.states_total = def.states().size();
  const auto alphabet = event_alphabet(def);
  const auto program = ModelProgram::compile(def);
  runtime::Rng rng(config_.seed);

  std::set<StateId> visited;
  auto mark_active = [&](const StateMachine& m) {
    for (const std::string& path : m.active_path()) {
      const StateId id = def.find_state(path);
      if (id != kNoState) {
        visited.insert(id);
        ++report.visit_counts[path];
      }
    }
  };

  for (int run = 0; run < config_.runs; ++run) {
    StateMachine m(program);
    runtime::SimTime now = 0;
    m.start(now);
    mark_active(m);
    for (int step = 0; step < config_.steps_per_run; ++step) {
      if (alphabet.empty() || rng.uniform() < config_.time_step_bias) {
        now += rng.uniform_int(1, config_.max_time_step);
        m.advance_time(now);
      } else {
        const auto& name = alphabet[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size() - 1)))];
        m.dispatch(SmEvent::named(name), now);
      }
      mark_active(m);
      if (m.livelock_detected()) {
        report.livelock_seen = true;
        break;
      }
    }
    report.transitions_fired += m.transitions_fired();
  }

  report.states_visited = visited.size();
  for (std::size_t i = 0; i < def.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (visited.count(id) == 0) report.never_visited.push_back(def.path(id));
  }
  return report;
}

}  // namespace trader::statemachine
