// The fuzz campaign behind the scripts/check.sh fuzz stage and
// fuzz_demo's defaults (FuzzConfig{}: seed 2026, 200 iterations), run
// in-process: tests that replay its minimized findings take them here
// as values, from the report itself.
#pragma once

#include <vector>

#include "testkit/fuzz.hpp"

namespace trader::testkit {

/// The default campaign's report. Computed once per test binary.
inline const FuzzReport& default_fuzz_report() {
  static const FuzzReport report = FuzzCampaignRunner(FuzzConfig{}).run();
  return report;
}

/// Its minimized findings as replayable labeled scenarios.
inline const std::vector<LabeledScenario>& fuzz_findings() {
  static const std::vector<LabeledScenario> findings = default_fuzz_report().labeled_findings();
  return findings;
}

}  // namespace trader::testkit
