#include "core/comparator.hpp"

namespace trader::core {

void Comparator::set_metrics(runtime::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    comparisons_metric_ = nullptr;
    deviations_metric_ = nullptr;
    errors_metric_ = nullptr;
    return;
  }
  comparisons_metric_ = &metrics->counter("comparator.comparisons");
  deviations_metric_ = &metrics->counter("comparator.deviations");
  errors_metric_ = &metrics->counter("comparator.errors");
}

void Comparator::index_policies() {
  const auto& observables = config_.awareness().observables;
  for (ObservableId id = 0; id < table_.size(); ++id) table_.row(id).policy = -1;
  policy_ids_.clear();
  for (std::size_t p = 0; p < observables.size(); ++p) {
    const ObservableId id = table_.intern(observables[p].name);
    policy_ids_.push_back(id);
    auto& policy = table_.row(id).policy;
    if (policy < 0) policy = static_cast<std::int32_t>(p);  // the first wins, as in lookup()
  }
  indexed_version_ = config_.version();
}

void Comparator::on_fresh_observation(ObservableId observable, runtime::SimTime now) {
  if (indexed_version_ != config_.version()) index_policies();
  // Names first seen after the last indexing have no policy.
  const std::int32_t policy = table_.row(observable).policy;
  if (policy < 0) return;
  const ObservableConfig& oc = config_.awareness().observables[static_cast<std::size_t>(policy)];
  if (!oc.event_based) return;
  compare_one(oc, observable, now);
}

void Comparator::compare_all(runtime::SimTime now) {
  if (indexed_version_ != config_.version()) index_policies();
  const auto& observables = config_.awareness().observables;
  for (std::size_t p = 0; p < observables.size(); ++p) {
    if (observables[p].time_based) compare_one(observables[p], policy_ids_[p], now);
  }
}

void Comparator::compare_one(const ObservableConfig& oc, ObservableId id, runtime::SimTime now) {
  if (now < grace_until_) return;
  const bool link_down = link_up_ != nullptr && !link_up_->load(std::memory_order_relaxed);
  if (link_down || !executor_.comparison_enabled(oc.name)) {
    ++stats_.suppressed;
    return;
  }
  const Expectation* expected = executor_.expected(id);
  const Observation* observed = observer_.observed(id);
  if (expected == nullptr || observed == nullptr) {
    ++stats_.skipped;
    return;
  }
  ++stats_.comparisons;
  if (comparisons_metric_ != nullptr) comparisons_metric_->inc();

  DeviationEpisode& ep = table_.row(id).episode;
  const double dev = runtime::deviation(expected->value, observed->value);
  if (dev <= oc.threshold) {
    ep.consecutive = 0;
    ep.reported = false;
    ep.first_deviation = -1;
    return;
  }

  ++stats_.deviations;
  if (deviations_metric_ != nullptr) deviations_metric_->inc();
  if (ep.consecutive == 0) ep.first_deviation = now;
  ++ep.consecutive;
  if (ep.consecutive >= oc.max_consecutive && !ep.reported) {
    ep.reported = true;
    ++stats_.errors;
    if (errors_metric_ != nullptr) errors_metric_->inc();
    ErrorReport report{oc.name,        expected->value,     observed->value, dev,
                       ep.consecutive, now,                 ep.first_deviation};
    errors_.push_back(report);
    if (notify_ != nullptr) notify_->on_error(report);
  }
}

bool Comparator::in_deviation(const std::string& observable) const {
  const ObservableId id = table_.find(observable);
  return id != ObservableTable::kNone && table_.row(id).episode.consecutive > 0;
}

}  // namespace trader::core
