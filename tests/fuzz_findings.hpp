// The fuzz campaign behind the scripts/check.sh fuzz stage and
// fuzz_demo's defaults (FuzzConfig{}: seed 2026, 200 iterations), run
// in-process: tests that replay its minimized findings derive them here
// instead of reading a generated FUZZ_corpus.json from the repo root.
#pragma once

#include <string>

#include "testkit/fuzz.hpp"

namespace trader::testkit {

/// The campaign's report JSON (corpus, coverage map, findings) — the
/// same bytes fuzz_demo writes. Computed once per test binary.
inline const std::string& fuzz_corpus_json() {
  static const std::string json = FuzzCampaignRunner(FuzzConfig{}).run().to_json();
  return json;
}

}  // namespace trader::testkit
