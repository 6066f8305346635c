// Comparator (Fig. 2): compares model expectations with system
// observations, applying the §4.3 tolerance machinery.
//
// "the Comparator should not be too eager to report errors; small delays
// in system-internal communication might easily lead to differences
// during a short time interval."  Per observable it therefore applies:
//   1. a deviation threshold,
//   2. a maximum number of consecutive deviations before reporting,
//   3. event-based and/or time-based comparison, and
//   4. model-driven enable/disable windows (IEnableCompare).
// An error is reported once per deviating episode; the episode resets
// when a comparison agrees again. An optional link gate quiesces every
// comparison (counted as suppressed) while the system under observation
// is unreachable: its observations are stale, and comparing them would
// flood the error stream; the outage is reported once elsewhere (the
// hub's slot supervision).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/model_executor.hpp"
#include "core/observable_table.hpp"
#include "core/observers.hpp"
#include "runtime/metrics.hpp"

namespace trader::core {

/// Aggregate comparator statistics (for the E3 trade-off bench).
struct ComparatorStats {
  std::uint64_t comparisons = 0;
  std::uint64_t deviations = 0;
  std::uint64_t errors = 0;
  std::uint64_t suppressed = 0;  ///< Skipped: link gate down or IEnableCompare window.
  std::uint64_t skipped = 0;     ///< Missing expectation or observation.
};

class Comparator : public IControl {
 public:
  /// `observables` is the table `executor` and `observer` share.
  /// `link_up`, when set, gates every comparison: false suppresses it.
  Comparator(const Configuration& config, const ModelExecutor& executor,
             const OutputObserver& observer, ObservableTable& observables,
             std::shared_ptr<const std::atomic<bool>> link_up)
      : config_(config),
        executor_(executor),
        observer_(observer),
        table_(observables),
        link_up_(std::move(link_up)) {}

  void start(runtime::SimTime now) override { grace_until_ = now + config_.awareness().startup_grace; }

  /// Attach the error sink (IErrorNotify).
  void set_notify(IErrorNotify* notify) { notify_ = notify; }

  /// Mirror ComparatorStats increments into "comparator.*" counters.
  void set_metrics(runtime::MetricsRegistry* metrics);

  /// Event-based comparison: a fresh observation of `observable` arrived.
  void on_fresh_observation(ObservableId observable, runtime::SimTime now);

  /// Time-based comparison of every monitored observable.
  void compare_all(runtime::SimTime now);

  const ComparatorStats& stats() const { return stats_; }
  const std::vector<ErrorReport>& errors() const { return errors_; }

  /// Is the observable currently inside a deviating episode?
  bool in_deviation(const std::string& observable) const;

 private:
  void compare_one(const ObservableConfig& oc, ObservableId id, runtime::SimTime now);
  /// Intern the configured names and map each id to its policy. Runs
  /// again whenever set_observable() has changed the configuration.
  void index_policies();

  const Configuration& config_;
  const ModelExecutor& executor_;
  const OutputObserver& observer_;
  ObservableTable& table_;
  std::shared_ptr<const std::atomic<bool>> link_up_;
  std::uint64_t indexed_version_ = ~std::uint64_t{0};
  std::vector<ObservableId> policy_ids_;  ///< Id of each configured observable.
  IErrorNotify* notify_ = nullptr;
  runtime::Counter* comparisons_metric_ = nullptr;
  runtime::Counter* deviations_metric_ = nullptr;
  runtime::Counter* errors_metric_ = nullptr;
  runtime::SimTime grace_until_ = 0;
  ComparatorStats stats_;
  std::vector<ErrorReport> errors_;
};

}  // namespace trader::core
