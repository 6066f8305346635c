// E20: fleet-level online diagnosis — spectra through the hub loop.
//
// E17 showed one epoll loop carries a fleet's event stream; this bench
// asks what adding the observe->diagnose loop costs and what it buys:
//   (a) ingest sweep — N real publishers (run_hub_publisher, spectrum
//       streaming enabled) drive events AND kSpectrum frames into one
//       hub; measured: event + spectrum-step throughput and the wall
//       latency of live ranking queries (cached top-k vs fresh report)
//       sampled from the operator's side while ingest is hot;
//   (b) staleness — the hub runs refresh_every = 8, so a cached top-k
//       is at most 7 reports stale; refreshes and ranking churn are
//       reported to show convergence;
//   (c) accuracy — the DiagnosisCampaign table: rank of the *known*
//       seeded fault block per fault kind, for a uniform scenario draw
//       and for the minimized findings of the default fuzz campaign
//       (FuzzConfig{}, run in process and replayed as values), i.e.
//       exactly the scenarios where detection once failed.
// Everything lands in BENCH_fleetdiag.json.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fleetdiag/aggregator.hpp"
#include "fleetdiag/reporter.hpp"
#include "hub/agent.hpp"
#include "hub/hub.hpp"
#include "ipc/wire.hpp"
#include "runtime/rng.hpp"
#include "runtime/stats.hpp"
#include "testkit/diag_campaign.hpp"
#include "testkit/fuzz.hpp"

namespace rt = trader::runtime;
namespace fd = trader::fleetdiag;
namespace hub = trader::hub;
namespace ipc = trader::ipc;
namespace tk = trader::testkit;
using trader::bench::Table;
using trader::bench::banner;
using trader::bench::fmt;
using trader::bench::fmt_int;

namespace {

std::string slot_name(std::size_t k) { return "tv" + std::to_string(k); }

/// Wall time of the three operator queries, one sample per call.
struct QueryTimes {
  rt::PercentileAccumulator cached;  ///< top_suspects (bounded, cached).
  rt::PercentileAccumulator fleet;   ///< fleet_top_suspects (merged when asked).
  rt::PercentileAccumulator fresh;   ///< full fresh ranking.

  void sample(const fd::FleetAggregator& diag, const std::string& slot) {
    const auto q0 = std::chrono::steady_clock::now();
    (void)diag.top_suspects(slot);
    const auto q1 = std::chrono::steady_clock::now();
    (void)diag.fleet_top_suspects();
    const auto q2 = std::chrono::steady_clock::now();
    (void)diag.report(slot);
    const auto q3 = std::chrono::steady_clock::now();
    cached.add(std::chrono::duration<double, std::micro>(q1 - q0).count());
    fleet.add(std::chrono::duration<double, std::micro>(q2 - q1).count());
    fresh.add(std::chrono::duration<double, std::micro>(q3 - q2).count());
  }
};

struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
};

Quantiles quantiles(rt::PercentileAccumulator& acc) {
  return {acc.percentile(50.0), acc.percentile(99.0)};
}

constexpr std::size_t kQuietQueries = 1000;

struct SweepRun {
  std::size_t publishers = 0;
  double events_per_sec = 0.0;
  double steps_per_sec = 0.0;
  std::uint64_t spectrum_frames = 0;
  double cached_query_p99_us = 0.0;  ///< top_suspects (bounded, cached).
  double fleet_query_p99_us = 0.0;   ///< fleet_top_suspects (merged when asked).
  double fresh_report_p99_us = 0.0;  ///< full fresh ranking.
  std::size_t query_samples = 0;     ///< Polls the p99 cells rest on.
  // The same queries timed on their own over the final aggregator
  // state, kQuietQueries calls each (us).
  Quantiles quiet_cached;
  Quantiles quiet_fleet;
  Quantiles quiet_fresh;
  std::uint64_t refreshes = 0;
  std::uint64_t churn = 0;
};

SweepRun run_sweep(std::size_t publishers) {
  hub::HubConfig config;
  config.shards = publishers >= 8 ? 4 : 1;
  config.probe_liveness = false;
  config.diag.top_k = 10;
  config.diag.refresh_every = 8;  // staleness bound: 7 reports
  hub::AwarenessHub awareness_hub(config);
  for (std::size_t k = 0; k < publishers; ++k) awareness_hub.add_slot(slot_name(k));
  if (!awareness_hub.start()) return {};

  std::vector<std::thread> suos;
  std::vector<hub::PublisherStats> stats(publishers);
  suos.reserve(publishers);
  for (std::size_t k = 0; k < publishers; ++k) {
    hub::PublisherConfig pub;
    pub.hub_path = awareness_hub.path();
    pub.name = slot_name(k);
    pub.seed = 7 + k;
    pub.horizon = rt::msec(3000);
    pub.key_period = rt::msec(10);  // 300 instrumented steps per SUO
    pub.diag.enabled = true;
    pub.diag.program.total_blocks = 2000;
    pub.diag.program.feature_count = 8;
    pub.diag.fault_feature = k % 8;  // every SUO carries a (distinct) bug
    pub.diag.flush_steps = 8;
    suos.emplace_back([pub, &stats, k] { hub::run_hub_publisher(pub, &stats[k]); });
  }

  // Pump the loop to completion, sampling live ranking queries after
  // every poll the way an operator dashboard would — against the hot
  // mutex, mid-ingest. The 8- and 32-publisher runs end in a handful of
  // polls, so a sparser cadence would leave their cells without a sample.
  QueryTimes live;
  const auto t_start = std::chrono::steady_clock::now();
  std::uint64_t polls = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (awareness_hub.connection_count() > 0 || awareness_hub.diagnosis().slot_count() == 0) {
    if (awareness_hub.poll(10) < 0) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    live.sample(awareness_hub.diagnosis(), slot_name(++polls % publishers));
  }
  const auto t_end = std::chrono::steady_clock::now();
  for (auto& t : suos) t.join();

  SweepRun run;
  run.publishers = publishers;
  const double wall_s = std::chrono::duration<double>(t_end - t_start).count();
  std::uint64_t events = 0;
  for (const auto& s : stats) events += s.events_sent;
  run.events_per_sec = static_cast<double>(events) / wall_s;
  run.steps_per_sec =
      static_cast<double>(awareness_hub.diagnosis().steps_ingested()) / wall_s;
  run.spectrum_frames = awareness_hub.metrics().counter("hub.spectra_frames");
  run.cached_query_p99_us = live.cached.percentile(99.0);
  run.fleet_query_p99_us = live.fleet.percentile(99.0);
  run.fresh_report_p99_us = live.fresh.percentile(99.0);
  run.query_samples = live.cached.count();
  run.refreshes = awareness_hub.metrics().counter("hub.diag.refreshes");
  run.churn = awareness_hub.diagnosis().ranking_churn();

  // The live samples are a handful per run (each poll drains a whole
  // backlog), so their p99 is the run's maximum. Time each query again
  // in a loop of its own over the state ingest left, slots rotating.
  QueryTimes quiet;
  for (std::size_t i = 0; i < kQuietQueries; ++i) {
    quiet.sample(awareness_hub.diagnosis(), slot_name(i % publishers));
  }
  run.quiet_cached = quantiles(quiet.cached);
  run.quiet_fleet = quantiles(quiet.fleet);
  run.quiet_fresh = quantiles(quiet.fresh);
  awareness_hub.stop();
  return run;
}

void report() {
  banner("E20", "online diagnosis: spectra through the hub loop");

  const std::vector<std::size_t> sweep{1, 8, 32};
  std::vector<SweepRun> runs;
  for (const std::size_t n : sweep) runs.push_back(run_sweep(n));

  // A p99 with no sample behind it prints "-" (null in the JSON), not 0.0.
  const auto p99_cell = [](const SweepRun& r, double v, int precision) {
    return r.query_samples == 0 ? std::string("-") : fmt(v, precision);
  };
  Table t({"publishers", "events/sec", "steps/sec", "spectrum frames", "query samples",
           "cached q p99 us", "fleet q p99 us", "fresh report p99 us", "refreshes", "churn"});
  for (const auto& r : runs) {
    t.row({fmt_int(static_cast<std::int64_t>(r.publishers)), fmt(r.events_per_sec, 0),
           fmt(r.steps_per_sec, 0), fmt_int(static_cast<std::int64_t>(r.spectrum_frames)),
           fmt_int(static_cast<std::int64_t>(r.query_samples)),
           p99_cell(r, r.cached_query_p99_us, 1), p99_cell(r, r.fleet_query_p99_us, 1),
           p99_cell(r, r.fresh_report_p99_us, 1),
           fmt_int(static_cast<std::int64_t>(r.refreshes)),
           fmt_int(static_cast<std::int64_t>(r.churn))});
  }
  t.print();

  std::printf("the same queries timed on their own over the final state, %zu calls each:\n",
              kQuietQueries);
  Table q({"publishers", "cached q p50 us", "cached q p99 us", "fleet q p50 us",
           "fleet q p99 us", "fresh report p50 us", "fresh report p99 us"});
  for (const auto& r : runs) {
    q.row({fmt_int(static_cast<std::int64_t>(r.publishers)), fmt(r.quiet_cached.p50, 1),
           fmt(r.quiet_cached.p99, 1), fmt(r.quiet_fleet.p50, 1), fmt(r.quiet_fleet.p99, 1),
           fmt(r.quiet_fresh.p50, 1), fmt(r.quiet_fresh.p99, 1)});
  }
  q.print();
  std::printf("spectrum ingest rides the event loop: O(touched) folds keep the\n"
              "hub's diagnosis current at wire rate, cached top-k queries stay\n"
              "microseconds, the fleet view pays a merge of the slots when asked\n"
              "and fresh full rankings pay the per-block scan.\n\n");

  // Diagnosis accuracy: uniform scenario draw + the default fuzz
  // campaign's findings, scored against injector ground truth per kind.
  tk::DiagCampaignConfig campaign_cfg;
  campaign_cfg.scenarios = 48;
  campaign_cfg.draw.aspects = 4;
  campaign_cfg.program.total_blocks = 1500;
  tk::DiagnosisCampaign campaign(campaign_cfg);
  const auto drawn = campaign.run();
  std::printf("uniform draw: %zu scenarios, %zu scored, top-%zu rate %.2f\n",
              drawn.scenarios, drawn.scored, campaign_cfg.top_k, drawn.top_k_rate());

  const auto findings =
      campaign.run(tk::FuzzCampaignRunner(tk::FuzzConfig{}).run().labeled_findings());
  std::printf("fuzz findings: %zu scenarios, %zu scored, top-%zu rate %.2f\n",
              findings.scenarios, findings.scored, campaign_cfg.top_k, findings.top_k_rate());

  std::ofstream json("BENCH_fleetdiag.json");
  json << "{\n  \"experiment\": \"bench_diag_hub\",\n";
  json << "  \"sweep\": [\n";
  const auto p99_json = [](const SweepRun& r, double v) {
    return r.query_samples == 0 ? std::string("null") : fmt(v, 2);
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << "    {\"publishers\": " << runs[i].publishers
         << ", \"events_per_sec\": " << fmt(runs[i].events_per_sec, 0)
         << ", \"spectrum_steps_per_sec\": " << fmt(runs[i].steps_per_sec, 0)
         << ", \"spectrum_frames\": " << runs[i].spectrum_frames
         << ", \"query_samples\": " << runs[i].query_samples
         << ", \"cached_query_p99_us\": " << p99_json(runs[i], runs[i].cached_query_p99_us)
         << ", \"fleet_query_p99_us\": " << p99_json(runs[i], runs[i].fleet_query_p99_us)
         << ", \"fresh_report_p99_us\": " << p99_json(runs[i], runs[i].fresh_report_p99_us)
         << ", \"quiet_queries\": " << kQuietQueries
         << ", \"quiet_cached_p50_us\": " << fmt(runs[i].quiet_cached.p50, 2)
         << ", \"quiet_cached_p99_us\": " << fmt(runs[i].quiet_cached.p99, 2)
         << ", \"quiet_fleet_p50_us\": " << fmt(runs[i].quiet_fleet.p50, 2)
         << ", \"quiet_fleet_p99_us\": " << fmt(runs[i].quiet_fleet.p99, 2)
         << ", \"quiet_fresh_p50_us\": " << fmt(runs[i].quiet_fresh.p50, 2)
         << ", \"quiet_fresh_p99_us\": " << fmt(runs[i].quiet_fresh.p99, 2)
         << ", \"refresh_every\": 8"
         << ", \"refreshes\": " << runs[i].refreshes << ", \"churn\": " << runs[i].churn
         << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"campaign\": " << drawn.to_json() << ",\n";
  json << "  \"findings\": " << findings.to_json() << "\n}\n";
  std::printf("wrote BENCH_fleetdiag.json (ingest sweep + per-kind accuracy table)\n");
}

// ------------------------------------------------------- microbenchmarks

void BM_AggregatorIngest(benchmark::State& state) {
  fd::FleetAggregator agg(fd::AggregatorConfig{10, 8});
  std::vector<ipc::SpectrumStep> steps;
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < 32; ++b) blocks.push_back(b * 7);
  steps.push_back({false, blocks});
  std::uint64_t i = 0;
  for (auto _ : state) {
    steps[0].error = (++i % 5) == 0;
    agg.ingest("suo", steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AggregatorIngest);

void BM_AggregatorTopSuspects(benchmark::State& state) {
  fd::FleetAggregator agg(fd::AggregatorConfig{10, 1});
  rt::Rng rng(5);
  for (int s = 0; s < 512; ++s) {
    std::vector<std::uint32_t> blocks;
    for (std::uint32_t b = 0; b < 4096; ++b) {
      if (rng.bernoulli(0.05)) blocks.push_back(b);
    }
    agg.ingest("suo", {ipc::SpectrumStep{rng.bernoulli(0.2), blocks}});
  }
  for (auto _ : state) benchmark::DoNotOptimize(agg.top_suspects("suo"));
}
BENCHMARK(BM_AggregatorTopSuspects);

void BM_ReporterFlushFrame(benchmark::State& state) {
  fd::ReporterConfig config;
  config.block_count = 4096;
  fd::SpectrumReporter reporter(config);
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < 64; ++b) blocks.push_back(b * 11);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    for (int s = 0; s < 8; ++s) reporter.add_step(std::vector<std::uint32_t>(blocks), s == 0);
    benchmark::DoNotOptimize(reporter.flush(seq));
  }
}
BENCHMARK(BM_ReporterFlushFrame);

}  // namespace

TRADER_BENCH_MAIN(report)
