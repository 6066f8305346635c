#include "fleetdiag/aggregator.hpp"

#include <algorithm>

namespace trader::fleetdiag {

FleetAggregator::FleetAggregator(AggregatorConfig config, runtime::MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {
  if (config_.top_k == 0) config_.top_k = 1;
  if (config_.refresh_every == 0) config_.refresh_every = 1;
  if (metrics_ != nullptr) {
    reports_ctr_ = &metrics_->counter("hub.diag.reports");
    steps_ctr_ = &metrics_->counter("hub.diag.steps");
    error_steps_ctr_ = &metrics_->counter("hub.diag.error_steps");
    block_updates_ctr_ = &metrics_->counter("hub.diag.block_updates");
    refreshes_ctr_ = &metrics_->counter("hub.diag.refreshes");
    churn_ctr_ = &metrics_->counter("hub.diag.churn");
    retired_ctr_ = &metrics_->counter("hub.diag.retired_slots");
    slots_gauge_ = &metrics_->gauge("hub.diag.slots");
  }
}

std::size_t FleetAggregator::ingest(const std::string& slot, const ipc::Frame& frame) {
  if (frame.type != ipc::FrameType::kSpectrum) return 0;
  return ingest(slot, frame.spectra);
}

std::size_t FleetAggregator::ingest(const std::string& slot,
                                    const std::vector<ipc::SpectrumStep>& steps) {
  std::lock_guard<std::mutex> lock(mu_);
  return ingest_locked(slot, steps);
}

std::size_t FleetAggregator::ingest_locked(const std::string& slot_name,
                                           const std::vector<ipc::SpectrumStep>& steps) {
  Slot& slot = slots_[slot_name];
  std::uint64_t block_updates = 0;
  std::uint64_t error_steps = 0;
  for (const ipc::SpectrumStep& step : steps) {
    slot.counts.add(step.blocks, step.error);
    block_updates += step.blocks.size();
    if (step.error) ++error_steps;
  }
  ++slot.reports;
  ++reports_;
  steps_ += steps.size();

  if (reports_ctr_ != nullptr) {
    reports_ctr_->inc();
    steps_ctr_->inc(steps.size());
    error_steps_ctr_->inc(error_steps);
    block_updates_ctr_->inc(block_updates);
    if (slots_gauge_ != nullptr) slots_gauge_->set(static_cast<double>(slots_.size()));
  }

  // Amortized refresh: at most one top-k scan per refresh_every
  // reports keeps the cached top-k within the staleness budget.
  if (slot.reports - slot.reports_at_refresh >= config_.refresh_every) {
    if (refresh_slot_locked(slot_name, slot)) ++churn_;
  }
  return steps.size();
}

bool FleetAggregator::same_blocks(const std::vector<diagnosis::BlockScore>& a,
                                  const std::vector<diagnosis::BlockScore>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].block != b[i].block) return false;
  }
  return true;
}

bool FleetAggregator::refresh_slot_locked(const std::string& name, Slot& slot) {
  std::vector<diagnosis::BlockScore> next = slot.counts.top_k(config_.top_k);
  slot.reports_at_refresh = slot.reports;
  if (refreshes_ctr_ != nullptr) refreshes_ctr_->inc();
  const bool changed = !same_blocks(next, slot.top);
  slot.top = std::move(next);
  if (changed) {
    ++slot.churn;
    if (churn_ctr_ != nullptr) churn_ctr_->inc();
  }
  export_health_locked(name, slot);
  return changed;
}

void FleetAggregator::export_health_locked(const std::string& name, Slot& slot) {
  if (metrics_ == nullptr) return;
  if (slot.health_gauge == nullptr) {
    slot.health_gauge = &metrics_->gauge("hub.diag.health/" + name);
    slot.top_block_gauge = &metrics_->gauge("hub.diag.top_block/" + name);
  }
  const std::size_t steps = slot.counts.steps();
  const double error_rate =
      steps == 0 ? 0.0
                 : static_cast<double>(slot.counts.error_steps()) / static_cast<double>(steps);
  slot.health_gauge->set(1.0 - error_rate);
  slot.top_block_gauge->set(slot.top.empty() ? -1.0 : static_cast<double>(slot.top[0].block));
}

bool FleetAggregator::retire_slot(const std::string& slot_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot_name);
  if (it == slots_.end()) return false;
  slots_.erase(it);
  if (retired_ctr_ != nullptr) {
    retired_ctr_->inc();
    if (slots_gauge_ != nullptr) slots_gauge_->set(static_cast<double>(slots_.size()));
  }
  return true;
}

std::size_t FleetAggregator::slot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::vector<std::string> FleetAggregator::slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) out.push_back(name);
  return out;
}

bool FleetAggregator::has_slot(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.count(slot) > 0;
}

std::vector<diagnosis::BlockScore> FleetAggregator::top_suspects(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(slot);
  return it != slots_.end() ? it->second.top : std::vector<diagnosis::BlockScore>{};
}

diagnosis::IncrementalSflCounts FleetAggregator::fleet_counts() const {
  diagnosis::IncrementalSflCounts fleet;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, slot] : slots_) fleet.merge(slot.counts);
  return fleet;
}

// Fleet queries rank the merged copy after the lock is released, so
// ingest waits only for the merge, not for the ranking.
std::vector<diagnosis::BlockScore> FleetAggregator::fleet_top_suspects() const {
  return fleet_counts().top_k(config_.top_k);
}

std::size_t FleetAggregator::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t changed = 0;
  for (auto& [name, slot] : slots_) {
    if (refresh_slot_locked(name, slot)) {
      ++churn_;
      ++changed;
    }
  }
  return changed;
}

diagnosis::DiagnosisReport FleetAggregator::report(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(slot);
  if (it == slots_.end()) return {};
  return it->second.counts.report();
}

diagnosis::DiagnosisReport FleetAggregator::fleet_report() const {
  return fleet_counts().report();
}

std::vector<diagnosis::ComponentScore> FleetAggregator::component_ranking(
    const std::string& slot,
    const std::function<std::string(std::size_t block)>& component_of, int top_k_blocks) const {
  return diagnosis::ComponentRanker::rank(report(slot), component_of, top_k_blocks);
}

SlotHealth FleetAggregator::health(const std::string& slot_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SlotHealth h;
  h.slot = slot_name;
  const auto it = slots_.find(slot_name);
  if (it == slots_.end()) return h;
  const Slot& slot = it->second;
  h.reports = slot.reports;
  h.steps = slot.counts.steps();
  h.error_steps = slot.counts.error_steps();
  h.error_rate = h.steps == 0 ? 0.0
                              : static_cast<double>(h.error_steps) / static_cast<double>(h.steps);
  h.touched_blocks = slot.counts.touched_blocks();
  h.churn = slot.churn;
  if (!slot.top.empty()) {
    h.top_block = static_cast<std::int64_t>(slot.top[0].block);
    h.top_score = slot.top[0].score;
  }
  return h;
}

std::vector<SlotHealth> FleetAggregator::fleet_health() const {
  std::vector<std::string> names = slots();
  std::vector<SlotHealth> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(health(name));
  return out;
}

std::uint64_t FleetAggregator::reports_ingested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::uint64_t FleetAggregator::steps_ingested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

std::uint64_t FleetAggregator::ranking_churn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return churn_;
}

void FleetAggregator::save_state(journal::Encoder& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.u64(reports_);
  out.u64(steps_);
  out.u64(churn_);
  out.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [name, slot] : slots_) {
    out.str(name);
    slot.counts.save(out);
    out.u64(slot.reports);
    out.u64(slot.reports_at_refresh);
    out.u64(slot.churn);
  }
}

bool FleetAggregator::load_state(journal::Decoder& in, std::uint32_t version) {
  // Version 1 also carried a fleet-wide accumulator; its image is not
  // read as a version 2 one.
  if (version != 2) return false;
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  reports_ = in.u64();
  steps_ = in.u64();
  churn_ = in.u64();
  const std::uint32_t slot_count = in.u32();
  for (std::uint32_t i = 0; i < slot_count && in.ok(); ++i) {
    const std::string name = in.str();
    Slot& slot = slots_[name];
    if (!slot.counts.load(in)) break;  // load() failed `in`: cleared below
    slot.reports = in.u64();
    slot.reports_at_refresh = in.u64();
    slot.churn = in.u64();
  }
  if (!in.done()) {
    slots_.clear();
    return false;
  }
  // Re-derive the cached rankings from the restored counters. This is
  // a reconstruction, not a refresh: churn counters and refresh stamps
  // keep their checkpointed values so the convergence gate sees the
  // same history the live run saw.
  for (auto& [name, slot] : slots_) {
    slot.top = slot.counts.top_k(config_.top_k);
    export_health_locked(name, slot);
  }
  if (slots_gauge_ != nullptr) slots_gauge_->set(static_cast<double>(slots_.size()));
  return true;
}

}  // namespace trader::fleetdiag
