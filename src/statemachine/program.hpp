// ModelProgram: the immutable compiled form of a state machine.
//
// ModelProgram plays the role of Stateflow's generated C code (§4.3):
// the one engine every monitor runs. A fleet of thousands of identical
// spec models compiles — and stores — the tables once, because the
// executor is split in two:
//
//   ModelProgram   — everything that depends only on the *definition*:
//                    interned event ids, per-leaf dispatch spans,
//                    precomputed exit/entry chains, timed/completion
//                    tables. Immutable after compile(); shared by any
//                    number of instances across any number of threads.
//   BatchExecutor  — everything that depends on the *instance*: current
//                    leaf, per-depth entry times, variables, outputs.
//                    Stored as dense structure-of-arrays (batch.hpp) so
//                    thousands of instances step in one tight loop.
//
// Compilation accepts every definition and fixes the dispatch semantics:
// innermost source first, definition order among peers,
// earliest-due-first timed firing, bounded completion chains. The
// engine's verdicts on seeded streams are pinned to those of the
// reference interpreter it replaced (tests/step_digest.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/symbol_table.hpp"
#include "statemachine/definition.hpp"

namespace trader::statemachine {

class ModelProgram {
 public:
  /// A precompiled transition as seen from one source leaf.
  struct Trans {
    const TransitionDef* def = nullptr;  ///< Guard/action/after/internal.
    std::uint32_t exits_begin = 0;       ///< Span into state_pool(): leaf-first.
    std::uint32_t exits_len = 0;
    std::uint32_t entries_begin = 0;     ///< Span into state_pool(): top-down.
    std::uint32_t entries_len = 0;
    std::int32_t target_leaf = -1;       ///< Row index after firing; -1 internal.
    std::int32_t boundary_depth = -1;    ///< Depth of the LCA (-1 = above root).
    std::int32_t source_depth = 0;       ///< Depth of def->source in the row path.
  };

  /// Contiguous [begin, begin+len) range inside trans().
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };

  /// One leaf state's row: its root path and transition tables.
  struct Leaf {
    StateId state = kNoState;
    std::uint32_t path_begin = 0;  ///< Span into state_pool(): root..leaf.
    std::uint32_t path_len = 0;
    std::uint32_t dispatch_begin = 0;  ///< One Span per interned event in dispatch().
    Span completions;
    Span timed;
  };

  /// Compile `def` (copied into the program).
  static std::shared_ptr<const ModelProgram> compile(StateMachineDef def);

  const StateMachineDef& def() const { return def_; }
  std::size_t leaf_count() const { return leaves_.size(); }
  /// Deepest root..leaf path in the machine (the per-instance entry-time
  /// array is this many SimTime slots wide).
  std::size_t max_depth() const { return max_depth_; }

  /// Interned id of an event name, or -1 when no transition consumes it.
  int event_id(const std::string& name) const {
    const runtime::SymbolTable::Id id = event_ids_.find(name);
    return id == runtime::SymbolTable::kNone ? -1 : static_cast<int>(id);
  }

  /// Row index of the initial configuration's leaf (-1 for an empty def).
  int initial_leaf() const { return initial_leaf_; }

  const Leaf& leaf(int row) const { return leaves_[static_cast<std::size_t>(row)]; }
  const std::vector<StateId>& state_pool() const { return state_pool_; }
  const std::vector<Trans>& trans() const { return trans_; }
  /// Dispatch span for (leaf row, event id).
  const Span& dispatch_span(int row, int event) const {
    return dispatch_[leaf(row).dispatch_begin + static_cast<std::uint32_t>(event)];
  }

  /// Fixed bytes this program would add per instance in a batch (dense
  /// arrays only; variables and pending outputs are accounted by the
  /// batch, which owns them).
  std::size_t dense_bytes_per_instance() const;

 private:
  explicit ModelProgram(StateMachineDef def) : def_(std::move(def)) {}

  Trans compile_transition(const Leaf& row, const TransitionDef& t);

  StateMachineDef def_;
  runtime::SymbolTable event_ids_;  ///< Interned in sorted name order.
  std::vector<Leaf> leaves_;
  std::map<StateId, int> leaf_index_;
  std::vector<StateId> state_pool_;  ///< Flat paths/exits/entries storage.
  std::vector<Trans> trans_;
  std::vector<Span> dispatch_;  ///< leaf_count() x interned-event spans.
  std::size_t max_depth_ = 0;
  int initial_leaf_ = -1;
};

using ModelProgramPtr = std::shared_ptr<const ModelProgram>;

}  // namespace trader::statemachine
