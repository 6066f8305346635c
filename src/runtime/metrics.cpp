#include "runtime/metrics.hpp"

#include "runtime/fnv.hpp"

#include <algorithm>
#include <cstdio>

namespace trader::runtime {

// ------------------------------------------------------------------ Histogram

std::vector<double> Histogram::default_latency_bounds() {
  // 250ns, 1us, 4us, ... 1.024s: wide enough for tick latencies on any
  // host while keeping the bucket scan short.
  std::vector<double> bounds;
  for (double edge = 250.0; edge <= 1.1e9; edge *= 4.0) bounds.push_back(edge);
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? default_latency_bounds() : std::move(bounds)),
      buckets_(bounds_.size() + 1) {}

void Histogram::record(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> requires C++20 cmpxchg loop on some
  // libstdc++ versions; spell it out for portability.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target) {
      // Report the bucket's upper edge (overflow bucket: last edge).
      return bounds[std::min(i, bounds.size() - 1)];
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// ------------------------------------------------------------ MetricsSnapshot

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = h;
      continue;
    }
    HistogramSnapshot& mine = it->second;
    if (mine.bounds != h.bounds) continue;  // incompatible grids: keep first
    for (std::size_t i = 0; i < mine.buckets.size() && i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

std::vector<std::string> MetricsSnapshot::counter_lines(
    const std::vector<std::string>& prefixes) const {
  std::vector<std::string> lines;
  for (const auto& [name, v] : counters) {
    const bool wanted =
        prefixes.empty() ||
        std::any_of(prefixes.begin(), prefixes.end(), [&](const std::string& p) {
          return name.compare(0, p.size(), p) == 0;
        });
    if (wanted) lines.push_back(name + "=" + std::to_string(v));
  }
  return lines;
}

std::string MetricsSnapshot::fingerprint(const std::vector<std::string>& prefixes) const {
  return lines_fingerprint(counter_lines(prefixes));
}

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, name);
    out += "\": " + std::to_string(v);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, name);
    out += "\": " + json_num(v);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    json_escape_into(out, name);
    out += "\": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + json_num(h.sum);
    out += ", \"mean\": " + json_num(h.mean());
    out += ", \"p50\": " + json_num(h.quantile(0.50));
    out += ", \"p99\": " + json_num(h.quantile(0.99));
    out += ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_num(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

// ------------------------------------------------------------ MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.buckets.resize(hs.bounds.size() + 1);
    for (std::size_t i = 0; i < hs.buckets.size(); ++i) hs.buckets[i] = h->bucket(i);
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

}  // namespace trader::runtime
