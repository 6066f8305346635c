#include "testkit/golden_trace.hpp"

#include "runtime/fnv.hpp"

#include <algorithm>

namespace trader::testkit {

std::string TraceDiff::describe() const {
  if (identical) return "traces identical";
  std::string out = "first divergence at line " + std::to_string(first_divergence) + ":\n";
  out += "  left : " + (left.empty() ? std::string("<end of trace>") : left) + "\n";
  out += "  right: " + (right.empty() ? std::string("<end of trace>") : right);
  return out;
}

void GoldenTrace::add(runtime::SimTime t, const std::string& category,
                      const std::string& detail) {
  lines_.push_back("t=" + std::to_string(t) + " " + category + " " + detail);
}

void GoldenTrace::add_line(std::string line) { lines_.push_back(std::move(line)); }

void GoldenTrace::capture_errors(const std::vector<core::AspectError>& errors) {
  for (const auto& e : errors) {
    add(e.report.detected_at, "error", e.aspect + " " + e.report.describe());
  }
}

void GoldenTrace::capture_metrics(const runtime::MetricsSnapshot& snap,
                                  const std::vector<std::string>& prefixes) {
  for (auto& line : snap.counter_lines(prefixes)) add_line("metric " + std::move(line));
}

void GoldenTrace::tap(runtime::TraceLog& log) {
  log.set_tap([this](const runtime::TraceRecord& r) {
    add(r.time, "trace", std::string(runtime::to_string(r.level)) + " " + r.component + " " +
                             r.message);
  });
}

std::string GoldenTrace::fingerprint() const { return runtime::lines_fingerprint(lines_); }

TraceDiff GoldenTrace::diff(const GoldenTrace& a, const GoldenTrace& b) {
  TraceDiff d;
  static const std::string kEmpty;
  const std::size_t n = std::max(a.lines_.size(), b.lines_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& left = i < a.lines_.size() ? a.lines_[i] : kEmpty;
    const std::string& right = i < b.lines_.size() ? b.lines_[i] : kEmpty;
    if (left != right) {
      d.identical = false;
      d.first_divergence = i;
      d.left = left;
      d.right = right;
      return d;
    }
  }
  return d;
}

}  // namespace trader::testkit
