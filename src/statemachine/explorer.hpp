// Random-walk model exploration.
//
// §4.2: models of realistic TVs are easy to get wrong, and the project
// investigates "formal model-checking and test scripts to improve model
// quality". The static checker (checker.hpp) over-approximates; the
// explorer complements it dynamically: drive a StateMachine over the
// compiled ModelProgram (the engine monitors run, compiled once per
// exploration) with random events and time steps from its own alphabet
// and measure which states are actually visited, flagging
// livelocks and never-entered states that guards keep unreachable in
// practice.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "statemachine/definition.hpp"

namespace trader::statemachine {

struct ExplorationConfig {
  int runs = 10;               ///< Independent random walks.
  int steps_per_run = 500;     ///< Events/time-steps per walk.
  double time_step_bias = 0.3; ///< P(step is a time advance, not an event).
  runtime::SimDuration max_time_step = runtime::msec(2000);
  std::uint64_t seed = 1;
};

struct ExplorationReport {
  std::size_t states_total = 0;
  std::size_t states_visited = 0;
  std::vector<std::string> never_visited;  ///< Paths of unvisited states.
  std::map<std::string, std::uint64_t> visit_counts;  ///< Path -> visits.
  std::uint64_t transitions_fired = 0;
  bool livelock_seen = false;

  double state_coverage() const {
    return states_total > 0
               ? static_cast<double>(states_visited) / static_cast<double>(states_total)
               : 1.0;
  }
};

/// The event alphabet of a definition (distinct trigger names).
std::vector<std::string> event_alphabet(const StateMachineDef& def);

class RandomWalkExplorer {
 public:
  explicit RandomWalkExplorer(ExplorationConfig config = {}) : config_(config) {}

  ExplorationReport explore(const StateMachineDef& def) const;

 private:
  ExplorationConfig config_;
};

}  // namespace trader::statemachine
