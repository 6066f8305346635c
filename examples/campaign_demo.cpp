// Seeded fault-injection campaign over the awareness runtime.
//
// Runs the same 50-scenario campaign twice — once on a one-shard fleet
// (a single scheduler, run on the calling thread), once on a 4-shard
// ShardedFleet — prints the per-kind detection matrix, and diffs the
// two golden traces: the determinism claim means the fingerprints must
// match exactly.
//
//   build/examples/campaign_demo [seed]
//
// Pass a seed to explore different scenario draws; any seed must still
// produce identical traces at both shard counts.
#include <cstdio>
#include <cstdlib>

#include "testkit/campaign.hpp"

namespace tk = trader::testkit;

int main(int argc, char** argv) {
  tk::CampaignConfig cfg;
  cfg.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  cfg.scenarios = 50;

  std::printf("campaign: seed=%llu scenarios=%zu aspects=%zu\n",
              static_cast<unsigned long long>(cfg.seed), cfg.scenarios, cfg.draw.aspects);

  std::printf("\n-- single-scheduler backend --\n");
  const auto single = tk::CampaignRunner(cfg).run();

  auto sharded_cfg = cfg;
  sharded_cfg.executor.shards = 4;
  std::printf("-- sharded backend (4 shards) --\n");
  const auto sharded = tk::CampaignRunner(sharded_cfg).run();

  std::printf("\n%-20s %9s %8s %6s %9s %9s %12s\n", "kind", "scenarios", "detected", "missed",
              "false-pos", "recovered", "latency(us)");
  for (const auto& [kind, ks] : single.by_kind) {
    std::printf("%-20s %9zu %8zu %6zu %9zu %9zu %12lld\n", kind.c_str(), ks.scenarios,
                ks.detected, ks.missed, ks.false_positive, ks.recovered,
                static_cast<long long>(ks.mean_latency()));
  }
  std::printf("\ndetection rate (detectable kinds): %.4f\n", single.detection_rate_detectable());
  std::printf("verdicts: %zu detected, %zu missed, %zu false-positive, %zu true-negative\n",
              single.count(tk::Verdict::kDetected), single.count(tk::Verdict::kMissed),
              single.count(tk::Verdict::kFalsePositive),
              single.count(tk::Verdict::kTrueNegative));

  const auto fp_single = single.golden_trace().fingerprint();
  const auto fp_sharded = sharded.golden_trace().fingerprint();
  std::printf("\ngolden trace: single=%s sharded=%s\n", fp_single.c_str(), fp_sharded.c_str());
  const auto diff = tk::GoldenTrace::diff(single.golden_trace(), sharded.golden_trace());
  std::printf("%s\n", diff.describe().c_str());
  if (!diff.identical) {
    std::printf("DETERMINISM VIOLATION: backends disagree\n");
    return 1;
  }

  std::printf("\ncampaign report (JSON):\n%s", single.to_json().c_str());
  return 0;
}
