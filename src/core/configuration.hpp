// Configuration component (Fig. 2): which observables are compared, and
// how leniently.
//
// §4.3: "the user of the framework can specify, for each observable
// value: (1) a threshold for the allowed maximal deviation between
// specification model and system, and (2) a maximum for the number of
// consecutive deviations that are allowed before an error will be
// reported." Plus the comparison frequency for time-based comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interfaces.hpp"
#include "runtime/channel.hpp"

namespace trader::core {

/// Per-observable comparison policy.
struct ObservableConfig {
  std::string name;
  double threshold = 0.0;   ///< Max allowed |expected - observed|.
  int max_consecutive = 1;  ///< Deviations tolerated before an error.
  bool event_based = true;  ///< Compare when a fresh observation arrives.
  bool time_based = true;   ///< Compare on the periodic tick as well.
};

/// Whole-monitor configuration.
struct AwarenessConfig {
  std::vector<ObservableConfig> observables;
  /// Period of time-based comparison (§4.3: "the frequency with which
  /// time-based comparison takes place").
  runtime::SimDuration comparison_period = runtime::msec(50);
  /// Suppress comparisons for this long after start (boot transient).
  runtime::SimDuration startup_grace = runtime::msec(100);
  /// Simulated process boundary (Fig. 2): SUO -> monitor link.
  runtime::ChannelConfig input_channel;
  runtime::ChannelConfig output_channel;
};

/// The Configuration box: owned by the Model Executor side per Fig. 2
/// ("the Configuration component … is controlled by the Model Executor").
class Configuration : public IControl {
 public:
  explicit Configuration(AwarenessConfig config) : config_(std::move(config)) {}

  const AwarenessConfig& awareness() const { return config_; }

  /// IConfigInfo: policy for one observable (nullptr = not monitored).
  /// Valid until the next set_observable().
  const ObservableConfig* lookup(const std::string& observable) const;

  /// Replace or add a per-observable policy at run time.
  void set_observable(ObservableConfig oc);

  /// Bumped by every set_observable(), so readers that index the
  /// policies know when to index them again.
  std::uint64_t version() const { return version_; }

  /// All monitored observable names.
  std::vector<std::string> observable_names() const;

 private:
  AwarenessConfig config_;
  std::uint64_t version_ = 0;
};

}  // namespace trader::core
