// Tests for random-walk exploration of the compiled model program.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mediaplayer/player.hpp"
#include "printer/printer.hpp"
#include "statemachine/explorer.hpp"
#include "tv/spec_model.hpp"

namespace sm = trader::statemachine;
namespace tv = trader::tv;
namespace pr = trader::printer;
namespace mp = trader::mediaplayer;

namespace {

// A power toggle emitting "powered".
sm::StateMachineDef power_region() {
  sm::StateMachineDef def("power");
  const auto off = def.add_state("Off");
  const auto on = def.add_state("On");
  def.on_entry(off, [](sm::ActionEnv& env) { env.emit("powered", {{"value", false}}); });
  def.on_entry(on, [](sm::ActionEnv& env) { env.emit("powered", {{"value", true}}); });
  def.add_transition(off, on, "power");
  def.add_transition(on, off, "power");
  return def;
}

}  // namespace

TEST(Explorer, AlphabetExtraction) {
  const auto def = power_region();
  const auto alphabet = sm::event_alphabet(def);
  ASSERT_EQ(alphabet.size(), 1u);
  EXPECT_EQ(alphabet[0], "power");
}

TEST(Explorer, FullCoverageOnSimpleMachine) {
  sm::RandomWalkExplorer explorer;
  const auto report = explorer.explore(power_region());
  EXPECT_EQ(report.states_total, 2u);
  EXPECT_EQ(report.states_visited, 2u);
  EXPECT_TRUE(report.never_visited.empty());
  EXPECT_DOUBLE_EQ(report.state_coverage(), 1.0);
  EXPECT_GT(report.transitions_fired, 0u);
  EXPECT_FALSE(report.livelock_seen);
}

TEST(Explorer, FindsGuardLockedState) {
  sm::StateMachineDef def("g");
  const auto a = def.add_state("A");
  const auto b = def.add_state("Locked");
  // Guard can never be satisfied: the static checker (optimistic about
  // guards) believes Locked is reachable; exploration shows otherwise.
  def.add_transition(a, b, "go",
                     [](const sm::Context&, const sm::SmEvent&) { return false; });
  def.add_transition(b, a, "back");
  sm::RandomWalkExplorer explorer;
  const auto report = explorer.explore(def);
  ASSERT_EQ(report.never_visited.size(), 1u);
  EXPECT_EQ(report.never_visited[0], "Locked");
  EXPECT_LT(report.state_coverage(), 1.0);
}

TEST(Explorer, TvSpecModelIsFullyExplorable) {
  sm::ExplorationConfig cfg;
  cfg.runs = 6;
  cfg.steps_per_run = 800;
  cfg.seed = 9;
  sm::RandomWalkExplorer explorer(cfg);
  const auto report = explorer.explore(tv::build_tv_spec_model());
  EXPECT_DOUBLE_EQ(report.state_coverage(), 1.0)
      << "unvisited: " << (report.never_visited.empty() ? "" : report.never_visited[0]);
  EXPECT_FALSE(report.livelock_seen);
}

TEST(Explorer, DetectsLivelock) {
  sm::StateMachineDef def("live");
  const auto a = def.add_state("A");
  const auto b = def.add_state("B");
  def.add_completion(a, b);
  def.add_completion(b, a);
  sm::RandomWalkExplorer explorer;
  const auto report = explorer.explore(def);
  EXPECT_TRUE(report.livelock_seen);
}

TEST(Explorer, VisitCountsArePopulated) {
  sm::RandomWalkExplorer explorer;
  const auto report = explorer.explore(power_region());
  EXPECT_GT(report.visit_counts.at("Off"), 0u);
  EXPECT_GT(report.visit_counts.at("On"), 0u);
}

TEST(Explorer, SpecModelReportsArePinned) {
  // Reports of the spec models at a fixed seed, as the reference
  // interpreter produced them: walking the compiled program must give
  // the same visits, firings and verdicts.
  struct Pinned {
    const char* model;
    sm::StateMachineDef def;
    std::size_t states_visited;
    std::uint64_t transitions_fired;
    std::map<std::string, std::uint64_t> visit_counts;
  };
  const Pinned pinned[] = {
      {"tv", tv::build_tv_spec_model(), 6, 2042,
       {{"Off", 2140}, {"On", 2870}, {"On.Dual", 86}, {"On.Menu", 682},
        {"On.Teletext", 85}, {"On.Video", 2017}}},
      {"printer", pr::build_printer_spec_model(), 5, 1122,
       {{"Error", 418}, {"Idle", 2760}, {"Paused", 179}, {"Printing", 355},
        {"Warming", 1298}}},
      {"player", mp::build_player_spec_model(), 4, 1495,
       {{"Paused", 455}, {"Playing", 1021}, {"Seeking", 308}, {"Stopped", 3226}}},
  };
  sm::ExplorationConfig cfg;
  cfg.seed = 2026;
  for (const auto& p : pinned) {
    SCOPED_TRACE(p.model);
    const auto report = sm::RandomWalkExplorer(cfg).explore(p.def);
    EXPECT_EQ(report.states_visited, p.states_visited);
    EXPECT_EQ(report.never_visited, std::vector<std::string>{});
    EXPECT_EQ(report.transitions_fired, p.transitions_fired);
    EXPECT_FALSE(report.livelock_seen);
    EXPECT_EQ(report.visit_counts, p.visit_counts);
  }
}
