#include "statemachine/batch.hpp"

#include <algorithm>

namespace trader::statemachine {

namespace {
const SmEvent kNullEvent{};
}  // namespace

BatchExecutor::BatchExecutor(ModelProgramPtr program)
    : program_(std::move(program)), stride_(program_->max_depth()) {
  emit_ = [this](const std::string& name, std::map<std::string, runtime::Value> fields) {
    outputs_[idx(cur_instance_)].push_back(ModelOutput{name, std::move(fields), cur_now_});
  };
}

BatchExecutor::InstanceId BatchExecutor::add_instance() {
  ++live_;
  if (!free_.empty()) {
    const InstanceId i = free_.back();
    free_.pop_back();
    flags_[idx(i)] = kLive;  // release() scrubbed the rest
    return i;
  }
  const auto i = static_cast<InstanceId>(leaf_.size());
  leaf_.push_back(-1);
  entered_.resize(entered_.size() + stride_, 0);
  flags_.push_back(kLive);
  fired_.push_back(0);
  vars_.emplace_back();
  outputs_.emplace_back();
  return i;
}

void BatchExecutor::release(InstanceId i) {
  leaf_[idx(i)] = -1;
  flags_[idx(i)] = 0;
  fired_[idx(i)] = 0;
  vars_[idx(i)].clear();
  outputs_[idx(i)].clear();
  std::fill_n(entered_.begin() + static_cast<std::ptrdiff_t>(idx(i) * stride_), stride_, 0);
  free_.push_back(i);
  --live_;
}

void BatchExecutor::run_action(InstanceId i, const Action& a, const SmEvent& ev,
                               runtime::SimTime now) {
  if (!a) return;
  cur_instance_ = i;
  cur_now_ = now;
  ActionEnv env{vars_[idx(i)], ev, now, emit_};
  a(env);
}

void BatchExecutor::start(InstanceId i, runtime::SimTime now) {
  std::fill_n(entered_.begin() + static_cast<std::ptrdiff_t>(idx(i) * stride_), stride_, 0);
  if (program_->initial_leaf() < 0) return;
  leaf_[idx(i)] = program_->initial_leaf();
  const auto& row = program_->leaf(leaf_[idx(i)]);
  const auto& pool = program_->state_pool();
  const auto& def = program_->def();
  for (std::uint32_t d = 0; d < row.path_len; ++d) {
    const StateId s = pool[row.path_begin + d];
    entered_[idx(i) * stride_ + d] = now;
    run_action(i, def.state(s).on_entry, kNullEvent, now);
  }
  run_completions(i, now);
}

bool BatchExecutor::fire(InstanceId i, const ModelProgram::Trans& ct, const SmEvent& ev,
                         runtime::SimTime now) {
  ++fired_[idx(i)];
  if (ct.def->internal) {
    run_action(i, ct.def->action, ev, now);
    return true;
  }
  const auto& pool = program_->state_pool();
  const auto& def = program_->def();
  for (std::uint32_t k = 0; k < ct.exits_len; ++k) {
    run_action(i, def.state(pool[ct.exits_begin + k]).on_exit, ev, now);
  }
  run_action(i, ct.def->action, ev, now);
  for (std::uint32_t k = 0; k < ct.entries_len; ++k) {
    const StateId s = pool[ct.entries_begin + k];
    // Entries fill the new path below the boundary: depth boundary+1+k.
    const auto depth = static_cast<std::size_t>(ct.boundary_depth + 1) + k;
    entered_[idx(i) * stride_ + depth] = now;
    run_action(i, def.state(s).on_entry, ev, now);
  }
  leaf_[idx(i)] = ct.target_leaf;
  return true;
}

void BatchExecutor::run_completions(InstanceId i, runtime::SimTime now) {
  const auto& trans = program_->trans();
  for (int step = 0; step < kMaxMicrosteps; ++step) {
    const auto& row = program_->leaf(leaf_[idx(i)]);
    const ModelProgram::Trans* enabled = nullptr;
    for (std::uint32_t k = 0; k < row.completions.len; ++k) {
      const auto& ct = trans[row.completions.begin + k];
      if (ct.def->guard && !ct.def->guard(vars_[idx(i)], kNullEvent)) continue;
      enabled = &ct;
      break;
    }
    if (enabled == nullptr) return;
    fire(i, *enabled, kNullEvent, now);
  }
  flags_[idx(i)] |= kLivelock;
}

bool BatchExecutor::dispatch(InstanceId i, const SmEvent& ev, runtime::SimTime now) {
  if (leaf_[idx(i)] < 0) return false;
  const int eid = program_->event_id(ev.name);
  if (eid < 0) return false;
  const auto span = program_->dispatch_span(leaf_[idx(i)], eid);
  const auto& trans = program_->trans();
  for (std::uint32_t k = 0; k < span.len; ++k) {
    const auto& ct = trans[span.begin + k];
    if (ct.def->guard && !ct.def->guard(vars_[idx(i)], ev)) continue;
    fire(i, ct, ev, now);
    run_completions(i, now);
    return true;
  }
  return false;
}

int BatchExecutor::advance_time(InstanceId i, runtime::SimTime now) {
  if (leaf_[idx(i)] < 0) return 0;
  const auto& trans = program_->trans();
  int fired_count = 0;
  for (int iter = 0; iter < kMaxMicrosteps; ++iter) {
    const auto& row = program_->leaf(leaf_[idx(i)]);
    const ModelProgram::Trans* best = nullptr;
    runtime::SimTime best_due = 0;
    for (std::uint32_t k = 0; k < row.timed.len; ++k) {
      const auto& ct = trans[row.timed.begin + k];
      const runtime::SimTime due = entry(i, ct.source_depth) + ct.def->after;
      if (due > now) continue;
      if (ct.def->guard && !ct.def->guard(vars_[idx(i)], kNullEvent)) continue;
      if (best == nullptr || due < best_due) {
        best = &ct;
        best_due = due;
      }
    }
    if (best == nullptr) return fired_count;
    fire(i, *best, kNullEvent, best_due);
    run_completions(i, best_due);
    ++fired_count;
  }
  flags_[idx(i)] |= kLivelock;
  return fired_count;
}

int BatchExecutor::advance_all(runtime::SimTime now) {
  int total = 0;
  const auto n = static_cast<InstanceId>(leaf_.size());
  for (InstanceId i = 0; i < n; ++i) {
    if ((flags_[idx(i)] & kLive) == 0 || leaf_[idx(i)] < 0) continue;
    total += advance_time(i, now);
  }
  return total;
}

runtime::SimTime BatchExecutor::next_deadline(InstanceId i) const {
  if (leaf_[idx(i)] < 0) return -1;
  const auto& row = program_->leaf(leaf_[idx(i)]);
  const auto& trans = program_->trans();
  runtime::SimTime best = -1;
  for (std::uint32_t k = 0; k < row.timed.len; ++k) {
    const auto& ct = trans[row.timed.begin + k];
    const runtime::SimTime due = entry(i, ct.source_depth) + ct.def->after;
    if (best < 0 || due < best) best = due;
  }
  return best;
}

bool BatchExecutor::in(InstanceId i, const std::string& name) const {
  if (leaf_[idx(i)] < 0) return false;
  const auto& row = program_->leaf(leaf_[idx(i)]);
  const auto& pool = program_->state_pool();
  const auto& def = program_->def();
  for (std::uint32_t d = 0; d < row.path_len; ++d) {
    const StateId s = pool[row.path_begin + d];
    if (def.state(s).name == name || def.path(s) == name) return true;
  }
  return false;
}

std::string BatchExecutor::active_leaf(InstanceId i) const {
  if (leaf_[idx(i)] < 0) return {};
  return program_->def().path(program_->leaf(leaf_[idx(i)]).state);
}

std::vector<ModelOutput> BatchExecutor::drain_outputs(InstanceId i) {
  std::vector<ModelOutput> out;
  drain_outputs(i, out);
  return out;
}

void BatchExecutor::drain_outputs(InstanceId i, std::vector<ModelOutput>& out) {
  out.clear();
  out.swap(outputs_[idx(i)]);
}

std::size_t BatchExecutor::approx_bytes_per_instance() const {
  return dense_bytes_per_instance() + sizeof(Context) + sizeof(std::vector<ModelOutput>);
}

}  // namespace trader::statemachine
