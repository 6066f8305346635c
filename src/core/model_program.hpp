// Shared model programs and arena-batched model instances.
//
// The executor-v2 redesign splits "the model" into two artifacts with
// different lifetimes and sharing rules:
//
//   ModelProgram  (statemachine/program.hpp) — the compiled, immutable
//                 table set. Compile once per spec, share across any
//                 number of monitors and threads.
//   ModelInstance — one monitor's mutable model state, stored as a slot
//                 in a per-arena BatchExecutor so thousands of
//                 instances of the same program sit in dense arrays.
//
// A ModelArena is the per-runtime-island home of that batched state:
// every ShardedFleet shard keeps its own (the batch stays
// single-threaded while the program is shared), and a standalone
// ModelInstance without an arena makes a private batch of size 1 on
// the same kernel.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "statemachine/batch.hpp"
#include "statemachine/program.hpp"

namespace trader::core {

using statemachine::ModelProgramPtr;

/// Compile `def` once into an immutable, shareable program.
inline ModelProgramPtr compile_model(statemachine::StateMachineDef def) {
  return statemachine::ModelProgram::compile(std::move(def));
}

/// The executable specification model a ModelExecutor drives (Fig. 2's
/// "Stateflow Model Implementation"): one slot of a shared
/// BatchExecutor. Holds the batch alive (shared_ptr) and returns the
/// slot to its free list on destruction, so monitor churn recycles arena
/// rows instead of growing them. Honours the IEnableCompare
/// "nocompare[:X]" convention.
class ModelInstance {
 public:
  explicit ModelInstance(std::shared_ptr<statemachine::BatchExecutor> batch)
      : batch_(std::move(batch)), id_(batch_->add_instance()) {}
  /// A standalone model: a private batch of one running `program`.
  explicit ModelInstance(ModelProgramPtr program)
      : ModelInstance(std::make_shared<statemachine::BatchExecutor>(std::move(program))) {}
  ~ModelInstance() { batch_->release(id_); }

  ModelInstance(const ModelInstance&) = delete;
  ModelInstance& operator=(const ModelInstance&) = delete;

  void start(runtime::SimTime now) { batch_->start(id_, now); }
  /// Feed one input event; returns true when the model reacted.
  bool dispatch(const statemachine::SmEvent& ev, runtime::SimTime now) {
    return batch_->dispatch(id_, ev, now);
  }
  /// Let model-internal timers fire up to `now`.
  void advance_time(runtime::SimTime now) { batch_->advance_time(id_, now); }
  /// Move the model outputs produced since the last drain into `out`,
  /// replacing its contents. `out` may lend its storage to the model's
  /// next outputs, so a caller that keeps one buffer drains without
  /// allocating.
  void drain_outputs(std::vector<statemachine::ModelOutput>& out) {
    batch_->drain_outputs(id_, out);
  }
  /// IEnableCompare: the model may suppress comparison of an observable
  /// while the system is legitimately "between modes" (§4.3).
  bool comparison_enabled(const std::string& observable) const {
    const auto& vars = batch_->vars(id_);
    if (vars.get_bool("nocompare", false)) return false;
    // The key is rebuilt in a kept buffer: a fresh "nocompare:" + name
    // would allocate on every comparison once it outgrows SSO. The
    // buffer is per thread, not per instance, so large fleets do not
    // carry one per monitor.
    static thread_local std::string key;
    key.assign("nocompare:").append(observable);
    return !vars.get_bool(key, false);
  }
  /// Diagnostic name of the model's current state.
  std::string state_name() const { return batch_->active_leaf(id_); }

 private:
  std::shared_ptr<statemachine::BatchExecutor> batch_;
  statemachine::BatchExecutor::InstanceId id_;
};

/// One runtime island's batched model state: a BatchExecutor per
/// distinct ModelProgram, instances handed out as ModelInstance slots.
/// Single-threaded, like the scheduler/bus it sits next to.
class ModelArena {
 public:
  /// Claim a slot in the batch for `program` (created on first use).
  std::unique_ptr<ModelInstance> make_instance(const ModelProgramPtr& program);

  std::size_t batch_count() const { return batches_.size(); }
  std::size_t live_instances() const;
  std::size_t slot_count() const;
  /// Dense + fixed cold bytes across all slots (E18 accounting).
  std::size_t approx_bytes() const;

  /// The batch backing `program`, or nullptr when no instance was ever
  /// made (introspection for tests and footprint reports).
  const statemachine::BatchExecutor* batch(const ModelProgramPtr& program) const;

 private:
  std::map<const statemachine::ModelProgram*, std::shared_ptr<statemachine::BatchExecutor>>
      batches_;
};

}  // namespace trader::core
