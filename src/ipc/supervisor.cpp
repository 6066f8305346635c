#include "ipc/supervisor.hpp"

#include <algorithm>

namespace trader::ipc {

const char* to_string(LinkState s) {
  switch (s) {
    case LinkState::kDown:
      return "down";
    case LinkState::kConnecting:
      return "connecting";
    case LinkState::kUp:
      return "up";
    case LinkState::kDegraded:
      return "degraded";
    case LinkState::kFailed:
      return "failed";
  }
  return "?";
}

ProcessSupervisor::ProcessSupervisor(SupervisorConfig config)
    : config_(config), jitter_(config.jitter_seed) {
  if (config_.heartbeat_miss_threshold < 1) config_.heartbeat_miss_threshold = 1;
  if (config_.backoff_initial_ms < 1) config_.backoff_initial_ms = 1;
  if (config_.backoff_max_ms < config_.backoff_initial_ms) {
    config_.backoff_max_ms = config_.backoff_initial_ms;
  }
  config_.backoff_jitter = std::clamp(config_.backoff_jitter, 0.0, 0.9);
}

void ProcessSupervisor::on_connected() {
  if (state_ == LinkState::kUp) return;
  if (was_up_) ++reconnects_;
  was_up_ = true;
  state_ = LinkState::kUp;
  attempts_ = 0;
  misses_ = 0;
}

void ProcessSupervisor::on_disconnected(bool orderly) {
  if (state_ == LinkState::kFailed) return;
  if (up() && !orderly) ++outages_;
  state_ = LinkState::kDown;
  misses_ = 0;
  attempts_ = 0;
}

void ProcessSupervisor::on_heartbeat_ack() {
  misses_ = 0;
  if (state_ == LinkState::kDegraded) state_ = LinkState::kUp;
}

bool ProcessSupervisor::on_heartbeat_miss() {
  if (!up()) return false;
  ++misses_;
  if (misses_ >= config_.heartbeat_miss_threshold) {
    on_disconnected();
    return true;
  }
  state_ = LinkState::kDegraded;
  return false;
}

std::int64_t ProcessSupervisor::next_backoff_ms() {
  if (state_ == LinkState::kFailed) return -1;
  if (config_.max_attempts > 0 && attempts_ >= config_.max_attempts) {
    state_ = LinkState::kFailed;
    return -1;
  }
  const int attempt = attempts_++;
  state_ = LinkState::kConnecting;
  if (attempt == 0) return 0;  // probe a freshly restarted SUO immediately

  std::int64_t delay = config_.backoff_initial_ms;
  for (int i = 1; i < attempt && delay < config_.backoff_max_ms; ++i) delay *= 2;
  delay = std::min(delay, config_.backoff_max_ms);
  const double factor = jitter_.uniform(1.0 - config_.backoff_jitter,
                                        1.0 + config_.backoff_jitter);
  delay = std::max<std::int64_t>(1, static_cast<std::int64_t>(delay * factor));
  return std::min(delay, config_.backoff_max_ms * 2);
}

SupervisorSnapshot ProcessSupervisor::snapshot() const {
  SupervisorSnapshot s;
  s.link_state = static_cast<std::uint8_t>(state_);
  s.attempts = attempts_;
  s.misses = misses_;
  s.was_up = was_up_;
  s.outages = outages_;
  s.reconnects = reconnects_;
  s.jitter_rng = jitter_.state();
  return s;
}

void ProcessSupervisor::restore(const SupervisorSnapshot& s) {
  state_ = s.link_state <= static_cast<std::uint8_t>(LinkState::kFailed)
               ? static_cast<LinkState>(s.link_state)
               : LinkState::kDown;
  attempts_ = s.attempts;
  misses_ = s.misses;
  was_up_ = s.was_up;
  outages_ = s.outages;
  reconnects_ = s.reconnects;
  jitter_.set_state(s.jitter_rng);
}

}  // namespace trader::ipc
