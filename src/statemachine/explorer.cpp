#include "statemachine/explorer.hpp"

#include <algorithm>
#include <set>

#include "runtime/rng.hpp"
#include "statemachine/batch.hpp"

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

  // The active configuration is the leaf and its ancestors: the dotted
  // prefixes of the leaf's path.
  std::set<StateId> visited;
  auto mark_active = [&](const BatchExecutor& exec, BatchExecutor::InstanceId m) {
    const std::string leaf = exec.active_leaf(m);
    if (leaf.empty()) return;
    std::size_t end = 0;
    do {
      end = leaf.find('.', end + 1);
      const std::string path = leaf.substr(0, end);
      const StateId id = def.find_state(path);
      if (id != kNoState) {
        visited.insert(id);
        ++report.visit_counts[path];
      }
    } while (end != std::string::npos);
  };

  for (int run = 0; run < config_.runs; ++run) {
    BatchExecutor exec(program);
    const auto m = exec.add_instance();
    runtime::SimTime now = 0;
    exec.start(m, now);
    mark_active(exec, m);
    for (int step = 0; step < config_.steps_per_run; ++step) {
      if (alphabet.empty() || rng.uniform() < config_.time_step_bias) {
        now += rng.uniform_int(1, config_.max_time_step);
        exec.advance_time(m, now);
      } else {
        const auto& name = alphabet[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size() - 1)))];
        exec.dispatch(m, SmEvent::named(name), now);
      }
      mark_active(exec, m);
      if (exec.livelock_detected(m)) {
        report.livelock_seen = true;
        break;
      }
    }
    report.transitions_fired += exec.transitions_fired(m);
  }

  report.states_visited = visited.size();
  for (std::size_t i = 0; i < def.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (visited.count(id) == 0) report.never_visited.push_back(def.path(id));
  }
  return report;
}

}  // namespace trader::statemachine
