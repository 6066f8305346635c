// Structure-of-arrays batch executor over one shared ModelProgram.
//
// A fleet of awareness monitors watching identical SUOs runs thousands
// of copies of the SAME spec model. BatchExecutor stores the tables
// once (in the immutable ModelProgram) and keeps only the per-instance
// state in dense parallel arrays:
//
//   leaf_[i]                      current leaf row (-1 = not started)
//   entered_[i*max_depth + d]     entry time of the state at depth d
//   flags_[i]                     live / livelock bits
//   fired_[i]                     transitions fired (E11 accounting)
//   vars_[i], outputs_[i]         cold per-instance data (deques: the
//                                 Context& handed to actions stays
//                                 valid across add_instance growth)
//
// Slots are recycled through a free list so monitor churn (recovery
// restarts, SUO reconnects) does not grow the arena. This is the one
// implementation of dispatch, exit and entry in src/; StateMachine
// (machine.hpp) is a batch with one slot. exec_test and
// statemachine_test hold it to the verdicts a reference interpreter
// left on seeded streams, frozen as digests.
//
// Thread-safety: a BatchExecutor is single-threaded (one per shard);
// the ModelProgram it shares with other shards is immutable, so guards
// and actions may run concurrently across batches as long as they only
// touch their ActionEnv (which all in-tree models do).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "statemachine/program.hpp"

namespace trader::statemachine {

class BatchExecutor {
 public:
  using InstanceId = std::int32_t;

  explicit BatchExecutor(ModelProgramPtr program);
  // emit_ captures `this`: a copy would send its outputs to the source.
  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  const ModelProgram& program() const { return *program_; }

  /// Claim a slot (recycled from the free list when possible; recycled
  /// slots come back with clean vars/outputs/counters, never started).
  InstanceId add_instance();
  /// Return a slot to the free list, scrubbing its state.
  void release(InstanceId i);

  std::size_t live_count() const { return live_; }
  std::size_t slot_count() const { return leaf_.size(); }
  std::size_t free_count() const { return free_.size(); }

  // --- Per-instance stepping --------------------------------------------
  void start(InstanceId i, runtime::SimTime now);
  bool dispatch(InstanceId i, const SmEvent& ev, runtime::SimTime now);
  int advance_time(InstanceId i, runtime::SimTime now);
  runtime::SimTime next_deadline(InstanceId i) const;

  /// advance_time over every live, started instance in slot order — the
  /// one tight loop a shard runs per epoch. Returns transitions fired.
  int advance_all(runtime::SimTime now);

  bool started(InstanceId i) const { return leaf_[idx(i)] >= 0; }
  bool in(InstanceId i, const std::string& name) const;
  std::string active_leaf(InstanceId i) const;

  Context& vars(InstanceId i) { return vars_[idx(i)]; }
  const Context& vars(InstanceId i) const { return vars_[idx(i)]; }
  /// The outputs of `i` since the last drain, in a fresh vector.
  std::vector<ModelOutput> drain_outputs(InstanceId i);
  /// The same into `out` (cleared first), whose storage then holds the
  /// instance's next outputs: a caller that keeps `out` drains without
  /// allocating.
  void drain_outputs(InstanceId i, std::vector<ModelOutput>& out);
  bool livelock_detected(InstanceId i) const { return (flags_[idx(i)] & kLivelock) != 0; }
  std::uint64_t transitions_fired(InstanceId i) const { return fired_[idx(i)]; }

  // --- Footprint accounting (E18) -------------------------------------
  /// Dense array bytes one instance occupies (program-determined).
  std::size_t dense_bytes_per_instance() const { return program_->dense_bytes_per_instance(); }
  /// Dense bytes plus the fixed headers of the cold per-instance
  /// containers (variable map nodes and pending outputs are workload-
  /// dependent and excluded).
  std::size_t approx_bytes_per_instance() const;

 private:
  static constexpr int kMaxMicrosteps = 64;
  static constexpr std::uint8_t kLive = 0x1;
  static constexpr std::uint8_t kLivelock = 0x2;

  static std::size_t idx(InstanceId i) { return static_cast<std::size_t>(i); }
  runtime::SimTime entry(InstanceId i, std::int32_t depth) const {
    return entered_[idx(i) * stride_ + static_cast<std::size_t>(depth)];
  }

  bool fire(InstanceId i, const ModelProgram::Trans& ct, const SmEvent& ev,
            runtime::SimTime now);
  void run_completions(InstanceId i, runtime::SimTime now);
  void run_action(InstanceId i, const Action& a, const SmEvent& ev, runtime::SimTime now);

  ModelProgramPtr program_;
  std::size_t stride_ = 0;  ///< program max_depth: entry-time slots per instance.

  // Hot dense arrays, indexed by slot.
  std::vector<std::int32_t> leaf_;
  std::vector<runtime::SimTime> entered_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> fired_;
  // Cold per-instance data. Deques: references survive growth.
  std::deque<Context> vars_;
  std::deque<std::vector<ModelOutput>> outputs_;
  std::vector<InstanceId> free_;
  std::size_t live_ = 0;

  // emit closure shared by every action invocation; captures only
  // `this` (fits std::function's small-buffer slot — no allocation per
  // step). The current instance/time travel through these members: a
  // batch is single-threaded and actions cannot re-enter the executor.
  std::function<void(const std::string&, std::map<std::string, runtime::Value>)> emit_;
  InstanceId cur_instance_ = -1;
  runtime::SimTime cur_now_ = 0;
};

}  // namespace trader::statemachine
