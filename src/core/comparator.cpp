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

void Comparator::on_fresh_observation(const std::string& observable, runtime::SimTime now) {
  const ObservableConfig* oc = config_.lookup(observable);
  if (oc == nullptr || !oc->event_based) return;
  compare_one(*oc, now);
}

void Comparator::compare_all(runtime::SimTime now) {
  for (const auto& oc : config_.awareness().observables) {
    if (oc.time_based) compare_one(oc, now);
  }
}

void Comparator::compare_one(const ObservableConfig& oc, runtime::SimTime now) {
  if (now < grace_until_) return;
  if (!executor_.comparison_enabled(oc.name)) {
    ++stats_.suppressed;
    return;
  }
  const Expectation* expected = executor_.expected(oc.name);
  const Observation* observed = observer_.observed(oc.name);
  if (expected == nullptr || observed == nullptr) {
    ++stats_.skipped;
    return;
  }
  ++stats_.comparisons;
  if (comparisons_metric_ != nullptr) comparisons_metric_->inc();

  auto& ep = episodes_[oc.name];
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
  auto it = episodes_.find(observable);
  return it != episodes_.end() && it->second.consecutive > 0;
}

}  // namespace trader::core
