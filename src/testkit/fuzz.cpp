#include "testkit/fuzz.hpp"

#include "runtime/fnv.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace trader::testkit {

namespace {

std::string fmt_intensity(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Clamp `t` onto the grid inside [lo, hi] (all grid multiples).
runtime::SimTime snap_clamp(runtime::SimTime t, runtime::SimDuration grid, runtime::SimTime lo,
                            runtime::SimTime hi) {
  runtime::SimTime snapped = (t / grid) * grid;
  if (snapped < lo) snapped = lo;
  if (snapped > hi) snapped = hi;
  return snapped;
}

}  // namespace

// ------------------------------------------------------------- fingerprints

std::string shape_fingerprint(const GoldenTrace& trace) {
  runtime::Fnv1a64 h;
  // Two abstractions make this a *shape*: digit runs collapse to '#'
  // (times, counter values, aspect indices vanish) and consecutive
  // identical collapsed lines fold into one (a phase of N repeated
  // steps equals a phase of M) — what remains is the sequence of
  // distinct behavioural phases the run went through.
  std::string prev;
  for (const auto& line : trace.lines()) {
    std::string collapsed;
    collapsed.reserve(line.size());
    bool in_digits = false;
    for (const char c : line) {
      if (c >= '0' && c <= '9') {
        if (!in_digits) collapsed += '#';
        in_digits = true;
        continue;
      }
      in_digits = false;
      collapsed += c;
    }
    if (collapsed == prev) continue;
    h.bytes(collapsed).byte('\n');
    prev = std::move(collapsed);
  }
  return h.hex();
}

std::string coverage_key(const ScenarioScript& script, const ScenarioResult& result,
                         runtime::SimDuration latency_bucket) {
  std::set<std::string> kinds;
  for (const auto& f : script.fault_plan()) kinds.insert(faults::to_string(f.kind));

  std::string key;
  if (kinds.empty()) {
    key = "none";
  } else {
    bool first = true;
    for (const auto& k : kinds) {
      if (!first) key += "+";
      first = false;
      key += k;
    }
  }
  key += "|";
  key += to_string(result.verdict);
  key += "|";
  if (result.detection_latency >= 0 && latency_bucket > 0) {
    key += "L" + std::to_string(result.detection_latency / latency_bucket);
  } else {
    key += "L-";
  }
  if (script.has_outage()) key += "|outage";
  if (result.recovered) key += "|rec";
  return key;
}

// ------------------------------------------------------------ script JSON

std::string script_to_json(const ScenarioScript& script) {
  std::string out = "{";
  out += "\"name\": \"" + script.name() + "\"";
  out += ", \"aspects\": " + std::to_string(script.aspect_count());
  out += ", \"horizon_us\": " + std::to_string(script.horizon());
  if (script.has_outage()) {
    out += ", \"outage_us\": [" + std::to_string(script.suo_down()) + ", " +
           std::to_string(script.suo_up()) + "]";
  } else {
    out += ", \"outage_us\": null";
  }
  out += ", \"commands\": [";
  bool first = true;
  for (const auto& c : script.sorted_commands()) {
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(c.at) + ", " + std::to_string(c.aspect) + "]";
  }
  out += "], \"faults\": [";
  first = true;
  for (const auto& f : script.fault_plan()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"kind\": \"" + std::string(faults::to_string(f.kind)) + "\"";
    out += ", \"target\": \"" + f.target + "\"";
    out += ", \"at_us\": " + std::to_string(f.activate_at);
    out += ", \"duration_us\": " + std::to_string(f.duration);
    out += ", \"intensity\": " + fmt_intensity(f.intensity) + "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------- ScenarioMutator

std::vector<faults::FaultKind> ScenarioMutator::mutation_kinds() {
  auto kinds = campaign_default_kinds();
  kinds.push_back(faults::FaultKind::kResourceEater);
  return kinds;
}

ScenarioMutator::ScenarioMutator(ScenarioDraw draw)
    : draw_(std::move(draw)), kinds_(mutation_kinds()) {}

ScenarioScript ScenarioMutator::mutate(runtime::Rng& rng, const ScenarioScript& parent,
                                       const ScenarioScript& second, const std::string& name,
                                       std::string* op_name) const {
  constexpr std::size_t kMaxFaults = 4;
  const runtime::SimDuration grid = draw_.cadence;
  const auto set_op = [op_name](const char* op) {
    if (op_name != nullptr) *op_name = op;
  };

  ScenarioScript child = parent;
  child.name(name);
  const runtime::SimTime horizon = child.horizon();
  // Latest grid point a fault may start at and still overlap a command
  // before the run ends (one command plus the settle tail).
  const runtime::SimTime last_start = std::max<runtime::SimTime>(grid, horizon - 2 * grid);

  // Draw operators until one applies; every attempt consumes draws, so
  // the sequence stays deterministic regardless of which ops fire.
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto plan = child.fault_plan();
    const int op = static_cast<int>(rng.uniform_int(0, 10));
    switch (op) {
      case 0: {  // shift-fault: move a fault along the grid
        if (plan.empty()) break;
        auto& f = plan[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
        std::int64_t delta = rng.uniform_int(-3, 3);
        if (delta == 0) delta = 1;
        f.activate_at = snap_clamp(f.activate_at + delta * grid, grid, grid, last_start);
        child.faults(std::move(plan));
        set_op("shift-fault");
        return child;
      }
      case 1: {  // stretch-fault: grow or shrink the active window
        if (plan.empty()) break;
        auto& f = plan[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
        std::int64_t delta = rng.uniform_int(-2, 3);
        if (delta == 0) delta = 2;
        f.duration = snap_clamp(f.duration + delta * grid, grid, grid, horizon);
        child.faults(std::move(plan));
        set_op("stretch-fault");
        return child;
      }
      case 2: {  // attenuate: drop intensity onto the probability grid
        if (plan.empty()) break;
        auto& f = plan[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
        static constexpr double kLevels[] = {0.25, 0.5, 0.75, 1.0};
        f.intensity = kLevels[rng.uniform_int(0, 3)];
        child.faults(std::move(plan));
        set_op("attenuate");
        return child;
      }
      case 3: {  // retarget: point a fault at another aspect
        if (plan.empty() || child.aspect_count() < 2) break;
        auto& f = plan[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
        f.target = aspect_name(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(child.aspect_count()) - 1)));
        child.faults(std::move(plan));
        set_op("retarget");
        return child;
      }
      case 4: {  // mutate-kind: same window, different fault class
        if (plan.empty()) break;
        auto& f = plan[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
        f.kind = kinds_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kinds_.size()) - 1))];
        child.faults(std::move(plan));
        set_op("mutate-kind");
        return child;
      }
      case 5: {  // add-fault: compose a second fault, overlapping if possible
        if (plan.size() >= kMaxFaults) break;
        faults::FaultSpec add;
        add.kind = kinds_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kinds_.size()) - 1))];
        add.target = aspect_name(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(child.aspect_count()) - 1)));
        if (!plan.empty()) {
          // Land inside an existing fault's window so faults overlap.
          const auto& base = plan[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
          add.activate_at =
              snap_clamp(base.activate_at + rng.uniform_int(0, 2) * grid, grid, grid, last_start);
        } else {
          add.activate_at = snap_clamp(rng.uniform_int(1, std::max<std::int64_t>(
                                                              1, horizon / (2 * grid))) *
                                           grid,
                                       grid, grid, last_start);
        }
        add.duration = rng.uniform_int(2, 6) * grid;
        add.intensity = 1.0;
        plan.push_back(std::move(add));
        child.faults(std::move(plan));
        set_op("add-fault");
        return child;
      }
      case 6: {  // drop-fault
        if (plan.empty()) break;
        plan.erase(plan.begin() + rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1));
        child.faults(std::move(plan));
        set_op("drop-fault");
        return child;
      }
      case 7: {  // splice: merge the second parent's fault plan in
        if (second.fault_plan().empty() || plan.size() >= kMaxFaults) break;
        for (const auto& f : second.fault_plan()) {
          if (plan.size() >= kMaxFaults) break;
          faults::FaultSpec spliced = f;
          spliced.activate_at = snap_clamp(spliced.activate_at, grid, grid, last_start);
          plan.push_back(std::move(spliced));
        }
        child.faults(std::move(plan));
        set_op("splice");
        return child;
      }
      case 8: {  // outage: kill-restart window, inside a fault when one exists
        runtime::SimTime down;
        if (!plan.empty()) {
          const auto& base = plan[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(plan.size()) - 1))];
          down = base.activate_at + grid;
        } else {
          down = horizon / 3;
        }
        // The restart must land well before the horizon so comparators
        // resume and persistent divergence is still detectable.
        down = snap_clamp(down, grid, grid, std::max<runtime::SimTime>(grid, horizon - 4 * grid));
        const runtime::SimTime up =
            snap_clamp(down + rng.uniform_int(2, 4) * grid, grid, grid, horizon - 2 * grid);
        if (up <= down) break;
        child.outage(down, up);
        set_op("outage");
        return child;
      }
      case 9: {  // drop-commands: lose a contiguous chunk of user input
        auto cmds = child.sorted_commands();
        if (cmds.size() < 4) break;
        const std::int64_t n = static_cast<std::int64_t>(cmds.size());
        const std::int64_t len = rng.uniform_int(1, n / 2);
        const std::int64_t start = rng.uniform_int(0, n - len);
        cmds.erase(cmds.begin() + start, cmds.begin() + start + len);
        child.commands(std::move(cmds));
        set_op("drop-commands");
        return child;
      }
      case 10: {  // extend: longer horizon with a fresh command tail
        const runtime::SimDuration extra = rng.uniform_int(2, 5) * grid;
        auto cmds = child.sorted_commands();
        for (runtime::SimTime t = horizon; t < horizon + extra; t += grid) {
          for (std::size_t k = 0; k < child.aspect_count(); ++k) {
            cmds.push_back(ScriptCommand{t, k});
          }
        }
        child.commands(std::move(cmds));
        child.horizon(horizon + extra);
        set_op("extend");
        return child;
      }
      default:
        break;
    }
  }

  // Nothing applied (e.g. a clean, short script that kept drawing
  // fault-edit ops): force an add-fault so every mutate() moves.
  faults::FaultSpec add;
  add.kind = kinds_[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kinds_.size()) - 1))];
  add.target = aspect_name(
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(child.aspect_count()) - 1)));
  add.activate_at = snap_clamp(
      rng.uniform_int(1, std::max<std::int64_t>(1, horizon / (2 * grid))) * grid, grid, grid,
      last_start);
  add.duration = rng.uniform_int(2, 6) * grid;
  add.intensity = 1.0;
  auto plan = child.fault_plan();
  if (plan.size() < kMaxFaults) plan.push_back(std::move(add));
  child.faults(std::move(plan));
  set_op("add-fault");
  return child;
}

// --------------------------------------------------------------- minimizer

namespace {

/// One probe of the miss criterion; counts against the budget.
bool still_missed(ScenarioExecutor& executor, const ScenarioScript& candidate,
                  std::size_t& runs) {
  ++runs;
  const ScenarioResult r = executor.run(candidate);
  return r.verdict == Verdict::kMissed && r.fault_manifested;
}

}  // namespace

ScenarioScript minimize_scenario(ScenarioExecutor& executor, const ScenarioScript& script,
                                 std::size_t budget, runtime::SimDuration grid,
                                 std::size_t* runs_out) {
  ScenarioScript best = script;
  best.name(script.name() + "-min");
  std::size_t runs = 0;

  bool progress = true;
  while (progress && runs < budget) {
    progress = false;

    // Drop the outage window, if any.
    if (best.has_outage() && runs < budget) {
      ScenarioScript cand = best;
      cand.outage(-1, -1);
      if (still_missed(executor, cand, runs)) {
        best = std::move(cand);
        progress = true;
      }
    }

    // Drop surplus faults one at a time (a finding keeps >= 1 fault —
    // the miss criterion requires a manifestation).
    for (std::size_t i = 0; best.fault_plan().size() > 1 && i < best.fault_plan().size() &&
                            runs < budget;) {
      auto plan = best.fault_plan();
      plan.erase(plan.begin() + static_cast<std::ptrdiff_t>(i));
      ScenarioScript cand = best;
      cand.faults(std::move(plan));
      if (still_missed(executor, cand, runs)) {
        best = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }

    // Drop contiguous command chunks, halving the chunk size (ddmin).
    for (std::size_t size = best.sorted_commands().size() / 2; size >= 1 && runs < budget;
         size /= 2) {
      for (std::size_t start = 0;
           start + size <= best.sorted_commands().size() && runs < budget;) {
        auto cmds = best.sorted_commands();
        cmds.erase(cmds.begin() + static_cast<std::ptrdiff_t>(start),
                   cmds.begin() + static_cast<std::ptrdiff_t>(start + size));
        ScenarioScript cand = best;
        cand.commands(std::move(cmds));
        if (still_missed(executor, cand, runs)) {
          best = std::move(cand);
          progress = true;
        } else {
          start += size;
        }
      }
    }

    // Shrink the horizon to just past the last command.
    if (runs < budget) {
      const auto cmds = best.sorted_commands();
      const runtime::SimTime last_cmd = cmds.empty() ? grid : cmds.back().at;
      const runtime::SimTime cand_h = last_cmd + 2 * grid;
      const bool outage_fits = !best.has_outage() || best.suo_up() <= cand_h - grid;
      if (cand_h < best.horizon() && outage_fits) {
        ScenarioScript cand = best;
        cand.horizon(cand_h);
        if (still_missed(executor, cand, runs)) {
          best = std::move(cand);
          progress = true;
        }
      }
    }
  }

  if (runs_out != nullptr) *runs_out = runs;
  return best;
}

// ------------------------------------------------------- FuzzCampaignRunner

FuzzCampaignRunner::FuzzCampaignRunner(FuzzConfig config) : config_(std::move(config)) {}

FuzzReport FuzzCampaignRunner::run() {
  FuzzReport report;
  report.config = config_;

  runtime::Rng master(config_.seed);
  ScenarioExecutor executor(config_.executor);
  ScenarioMutator mutator(config_.draw);
  std::set<std::string> shapes;

  // Admit one executed scenario into corpus / coverage / findings.
  const auto consider = [&](const ScenarioScript& script, std::size_t index,
                            const std::string& parent, const std::string& op, bool force_admit) {
    const ScenarioResult result = executor.run(script);
    ++report.executions;
    switch (result.verdict) {
      case Verdict::kDetected: ++report.detected; break;
      case Verdict::kMissed: ++report.missed; break;
      case Verdict::kFalsePositive: ++report.false_positive; break;
      case Verdict::kTrueNegative: ++report.true_negative; break;
    }
    if (result.detectable_manifested) {
      ++report.detectable_manifested;
      if (result.verdict == Verdict::kDetected) ++report.detected_detectable;
    }

    const std::string shape = shape_fingerprint(result.trace);
    const std::string key = coverage_key(script, result, config_.latency_bucket);
    const bool new_cell = report.coverage.find(key) == report.coverage.end();
    CoverageCell& cell = report.coverage[key];
    if (new_cell) cell.first_seen = index;
    ++cell.hits;
    const bool new_shape = shapes.insert(shape).second;

    const bool novel = new_shape || new_cell;
    if (novel || force_admit) {
      CorpusEntry entry;
      entry.script = script;
      entry.parent = parent;
      entry.op = op;
      entry.verdict = result.verdict;
      entry.shape_fp = shape;
      entry.trace_fp = result.trace.fingerprint();
      entry.cov_key = key;
      entry.found_at = index;
      report.corpus.push_back(std::move(entry));
    }

    // Novel misses with a manifested fault are the findings: a detector
    // hole reached by the mutation walk. Minimize and keep them.
    if (novel && result.verdict == Verdict::kMissed && result.fault_manifested &&
        report.findings.size() < config_.max_findings) {
      std::size_t shrink_runs = 0;
      ScenarioScript minimized = minimize_scenario(executor, script, config_.minimize_budget,
                                                   config_.draw.cadence, &shrink_runs);
      report.minimize_executions += shrink_runs;
      Finding finding;
      finding.original = script.name();
      finding.cov_key = key;
      finding.found_at = index;
      finding.shrink_runs = shrink_runs;
      finding.commands_before = script.sorted_commands().size();
      finding.commands_after = minimized.sorted_commands().size();
      finding.faults_before = script.fault_plan().size();
      finding.faults_after = minimized.fault_plan().size();
      finding.script = std::move(minimized);
      report.findings.push_back(std::move(finding));
    }
  };

  // Seed phase: the uniform campaign draw, every scenario admitted so
  // the mutation walk starts from the E16 envelope.
  for (std::size_t i = 0; i < config_.seed_scenarios; ++i) {
    runtime::Rng rng = master.fork();
    const ScenarioScript script = draw_scenario(rng, i, config_.draw);
    consider(script, i, "", "draw", /*force_admit=*/true);
  }

  // Mutation phase.
  for (std::size_t it = 0; it < config_.iterations; ++it) {
    runtime::Rng rng = master.fork();
    const std::int64_t last = static_cast<std::int64_t>(report.corpus.size()) - 1;
    const CorpusEntry& parent = report.corpus[static_cast<std::size_t>(rng.uniform_int(0, last))];
    const CorpusEntry& second = report.corpus[static_cast<std::size_t>(rng.uniform_int(0, last))];
    char label[32];
    std::snprintf(label, sizeof(label), "f%04zu", it);
    std::string op;
    const ScenarioScript child = mutator.mutate(rng, parent.script, second.script, label, &op);
    // parent/second references die on corpus push; copy the name first.
    const std::string parent_name = parent.script.name();
    consider(child, config_.seed_scenarios + it, parent_name, op, /*force_admit=*/false);
    report.corpus_growth.push_back(report.corpus.size());
  }

  return report;
}

// --------------------------------------------------------------- FuzzReport

std::vector<LabeledScenario> FuzzReport::labeled_findings() const {
  std::vector<LabeledScenario> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back({f.script, f.original, f.cov_key});
  return out;
}

std::string FuzzReport::to_json() const {
  std::string out = "{\n";
  out += "  \"fuzz\": {\n";
  out += "    \"seed\": " + std::to_string(config.seed) + ",\n";
  out += "    \"seed_scenarios\": " + std::to_string(config.seed_scenarios) + ",\n";
  out += "    \"iterations\": " + std::to_string(config.iterations) + ",\n";
  out += "    \"aspects\": " + std::to_string(config.draw.aspects) + ",\n";
  out += "    \"backend\": \"" + backend_label(config.executor) + "\",\n";
  out += "    \"latency_bucket_us\": " + std::to_string(config.latency_bucket) + ",\n";
  out += "    \"minimize_budget\": " + std::to_string(config.minimize_budget) + "\n";
  out += "  },\n";

  out += "  \"totals\": {\n";
  out += "    \"executions\": " + std::to_string(executions) + ",\n";
  out += "    \"minimize_executions\": " + std::to_string(minimize_executions) + ",\n";
  out += "    \"corpus\": " + std::to_string(corpus.size()) + ",\n";
  out += "    \"coverage_cells\": " + std::to_string(coverage.size()) + ",\n";
  out += "    \"findings\": " + std::to_string(findings.size()) + ",\n";
  out += "    \"detected\": " + std::to_string(detected) + ",\n";
  out += "    \"missed\": " + std::to_string(missed) + ",\n";
  out += "    \"false_positive\": " + std::to_string(false_positive) + ",\n";
  out += "    \"true_negative\": " + std::to_string(true_negative) + ",\n";
  out += "    \"detection_floor\": " + fmt_rate(detection_floor()) + "\n";
  out += "  },\n";

  out += "  \"coverage\": {";
  bool first = true;
  for (const auto& [key, cell] : coverage) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + key + "\": {\"hits\": " + std::to_string(cell.hits) +
           ", \"first_seen\": " + std::to_string(cell.first_seen) + "}";
  }
  out += "\n  },\n";

  out += "  \"growth\": [";
  first = true;
  for (const std::size_t n : corpus_growth) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(n);
  }
  out += "],\n";

  out += "  \"corpus\": [";
  first = true;
  for (const auto& e : corpus) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + e.script.name() + "\"";
    out += ", \"parent\": \"" + e.parent + "\"";
    out += ", \"op\": \"" + e.op + "\"";
    out += ", \"verdict\": \"" + std::string(to_string(e.verdict)) + "\"";
    out += ", \"shape_fp\": \"" + e.shape_fp + "\"";
    out += ", \"trace_fp\": \"" + e.trace_fp + "\"";
    out += ", \"cov_key\": \"" + e.cov_key + "\"";
    out += ", \"found_at\": " + std::to_string(e.found_at) + "}";
  }
  out += "\n  ],\n";

  out += "  \"findings\": [";
  first = true;
  for (const auto& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"original\": \"" + f.original + "\"";
    out += ", \"cov_key\": \"" + f.cov_key + "\"";
    out += ", \"found_at\": " + std::to_string(f.found_at);
    out += ", \"shrink_runs\": " + std::to_string(f.shrink_runs);
    out += ", \"commands\": [" + std::to_string(f.commands_before) + ", " +
           std::to_string(f.commands_after) + "]";
    out += ", \"faults\": [" + std::to_string(f.faults_before) + ", " +
           std::to_string(f.faults_after) + "]";
    out += ", \"script\": " + script_to_json(f.script) + "}";
  }
  out += "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace trader::testkit
