#include "hub/recovery.hpp"

#include <algorithm>

namespace trader::hub {

namespace {

/// Deterministic 64-bit mix (splitmix64) for the per-slot cooldown
/// jitter: same binary + same seed + same slot name -> same jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void bump(runtime::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->inc(n);
}

void set_gauge(runtime::Gauge* g, std::size_t v) {
  if (g != nullptr) g->set(static_cast<double>(v));
}

}  // namespace

bool RecoveryPolicy::allows(recovery::RecoveryAction action) const {
  switch (action) {
    case recovery::RecoveryAction::kResync: return allow_resync;
    case recovery::RecoveryAction::kRestartUnit: return allow_restart_unit;
    case recovery::RecoveryAction::kRestartDependents: return allow_restart_dependents;
    case recovery::RecoveryAction::kFullRestart: return allow_full_restart;
    case recovery::RecoveryAction::kGiveUp: return true;  // hub-local, never masked
  }
  return false;
}

RecoveryOrchestrator::RecoveryOrchestrator(RecoveryConfig config,
                                           fleetdiag::FleetAggregator& diag,
                                           runtime::MetricsRegistry* metrics)
    : config_(config), diag_(diag), escalator_(config.escalation) {
  if (config_.token_capacity < 1) config_.token_capacity = 1;
  if (config_.stable_reports == 0) config_.stable_reports = 1;
  tokens_ = config_.token_capacity;  // full bucket at start
  if (metrics != nullptr) {
    sent_ctr_ = &metrics->counter("hub.recovery.sent");
    retries_ctr_ = &metrics->counter("hub.recovery.retries");
    timeouts_ctr_ = &metrics->counter("hub.recovery.timeouts");
    acked_ok_ctr_ = &metrics->counter("hub.recovery.acked_ok");
    acked_fail_ctr_ = &metrics->counter("hub.recovery.acked_fail");
    duplicate_acks_ctr_ = &metrics->counter("hub.recovery.duplicate_acks");
    suppressed_ctr_ = &metrics->counter("hub.recovery.suppressed");
    quarantined_ctr_ = &metrics->counter("hub.recovery.quarantined");
    give_ups_ctr_ = &metrics->counter("hub.recovery.give_ups");
    recovered_ctr_ = &metrics->counter("hub.recovery.recovered");
    policy_denied_ctr_ = &metrics->counter("hub.recovery.policy_denied");
    quarantined_gauge_ = &metrics->gauge("hub.recovery.quarantined_slots");
  }
}

void RecoveryOrchestrator::set_send(SendFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  send_ = std::move(fn);
}

void RecoveryOrchestrator::set_component_of(ComponentOf fn) {
  std::lock_guard<std::mutex> lock(mu_);
  component_of_ = std::move(fn);
}

void RecoveryOrchestrator::slot_up(const std::string& slot, std::uint8_t negotiated_version) {
  std::lock_guard<std::mutex> lock(mu_);
  SlotState& st = slots_[slot];
  st.up = true;
  st.negotiated_version = negotiated_version;
  // A fresh link invalidates any in-flight command (the old socket is
  // gone; a late ack for it would be dropped by the token check).
  st.outstanding = false;
  st.jitter = config_.cooldown_jitter <= 0
                  ? 0
                  : static_cast<runtime::SimDuration>(
                        mix64(config_.seed ^ std::hash<std::string>{}(slot)) %
                        static_cast<std::uint64_t>(config_.cooldown_jitter + 1));
}

void RecoveryOrchestrator::slot_down(const std::string& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  SlotState& st = it->second;
  st.up = false;
  if (st.outstanding) {
    // The command went down with the link; whether the SUO executed it
    // is unknowable, which is exactly what the idempotency token is
    // for — a post-reconnect duplicate execution is a no-op SUO-side.
    st.outstanding = false;
    ++stats_.lost;
  }
}

void RecoveryOrchestrator::retire_slot(const std::string& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;
  for (const std::string& key : it->second.ladder_keys) escalator_.forget(key);
  slots_.erase(it);
  set_gauge(quarantined_gauge_, quarantined_locked());
}

std::size_t RecoveryOrchestrator::quarantined_locked() const {
  return static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const auto& kv) { return kv.second.quarantined; }));
}

void RecoveryOrchestrator::quarantine_locked(SlotState& st) {
  if (st.quarantined) return;
  st.quarantined = true;
  st.outstanding = false;
  ++stats_.quarantined;
  bump(quarantined_ctr_);
  set_gauge(quarantined_gauge_, quarantined_locked());
}

void RecoveryOrchestrator::fail_outstanding_locked(SlotState& st) {
  st.outstanding = false;
  ++st.flaps;
  if (st.flaps >= config_.flap_threshold) quarantine_locked(st);
}

void RecoveryOrchestrator::issue_locked(const std::string& slot, SlotState& st,
                                        runtime::SimTime now, bool retry, Outbox& outbox) {
  st.outstanding = true;
  st.sent_at = now;
  if (actions_.size() < config_.action_log_limit) {  // bounded: oldest kept
    actions_.push_back({now, slot, static_cast<recovery::RecoveryAction>(st.action), st.unit,
                        st.block, st.token, retry});
  }
  ipc::Frame& f = outbox.emplace_back(slot, ipc::Frame{}).second;
  f.type = ipc::FrameType::kRecover;
  f.time = now;
  f.action = st.action;
  f.token = st.token;
  f.block = st.block;
  f.unit = st.unit;
}

void RecoveryOrchestrator::refill_tokens_locked(runtime::SimTime now) {
  if (config_.token_refill_every <= 0) {
    tokens_ = config_.token_capacity;
    return;
  }
  if (now <= last_refill_) return;
  const std::int64_t n = (now - last_refill_) / config_.token_refill_every;
  if (n <= 0) return;
  tokens_ = std::min<std::int64_t>(config_.token_capacity, tokens_ + n);
  last_refill_ += n * config_.token_refill_every;
  // A full bucket does not bank refill progress (classic token bucket).
  if (tokens_ == config_.token_capacity) last_refill_ = now;
}

std::size_t RecoveryOrchestrator::tick(runtime::SimTime now) {
  if (!config_.enabled) return 0;
  Outbox outbox;
  std::unique_lock<std::mutex> lock(mu_);
  refill_tokens_locked(now);

  // std::map order makes the walk deterministic: same diagnosis state +
  // same virtual time -> same action sequence at any shard count.
  for (auto& [name, st] : slots_) {
    if (!st.up || st.quarantined) continue;

    if (st.outstanding) {
      if (now - st.sent_at >= config_.ack_timeout) {
        ++stats_.timeouts;
        bump(timeouts_ctr_);
        if (st.retries < config_.max_retries) {
          // Resend the SAME token: if the SUO executed the lost
          // command, it replays its cached ack instead of acting twice.
          if (tokens_ >= 1) {
            --tokens_;
            ++st.retries;
            ++stats_.retries;
            bump(retries_ctr_);
            issue_locked(name, st, now, /*retry=*/true, outbox);
          }
          // No token: stay outstanding, retry next tick.
        } else {
          fail_outstanding_locked(st);
        }
      }
      continue;  // pending (or just failed) — never two in flight
    }

    const fleetdiag::SlotHealth h = diag_.health(name);

    if (st.acted && h.error_steps <= st.error_steps_at_action &&
        h.reports - st.reports_at_action >= config_.success_reports) {
      // Quiet since the last action: the repair worked. Decay the
      // ladder — but keep the error watermark, so the historical
      // (cumulative) error count can never justify another action.
      escalator_.report_success(name + "/" + st.acted_unit);
      st.acted = false;
      st.flaps = 0;
      st.has_candidate = false;
      ++stats_.recovered;
      bump(recovered_ctr_);
    }
    // Act only on error evidence no previous action has answered —
    // otherwise a successful repair would be "rewarded" with another
    // restart forever.
    if (h.error_steps <= st.error_steps_at_action) continue;

    const std::vector<diagnosis::BlockScore> suspects = diag_.top_suspects(name);
    if (suspects.empty() || suspects.front().score <= 0.0) continue;
    const std::string comp = component_of_
                                 ? component_of_(suspects.front().block)
                                 : "block" + std::to_string(suspects.front().block);

    // Convergence gate: (re)baseline whenever the top suspect or the
    // slot's churn counter moved, then require stable_reports further
    // reports of agreement before acting.
    if (!st.has_candidate || comp != st.candidate || h.churn != st.candidate_churn) {
      st.has_candidate = true;
      st.candidate = comp;
      st.candidate_block = static_cast<std::uint32_t>(suspects.front().block);
      st.candidate_reports = h.reports;
      st.candidate_churn = h.churn;
    }
    if (h.reports - st.candidate_reports < config_.stable_reports) {
      ++stats_.suppressed_unconverged;
      bump(suppressed_ctr_);
      continue;
    }

    if (now < st.cooldown_until) {
      ++stats_.suppressed_cooldown;
      bump(suppressed_ctr_);
      continue;
    }
    if (st.negotiated_version < ipc::kRecoverMinVersion) {
      // Observed, never actuated: a v2 peer must see zero kRecover
      // frames (its fail-closed decoder would poison the link).
      ++stats_.suppressed_version;
      bump(suppressed_ctr_);
      continue;
    }
    if (tokens_ < 1) {
      ++stats_.suppressed_tokens;
      bump(suppressed_ctr_);
      continue;
    }

    const std::string key = name + "/" + st.candidate;
    recovery::RecoveryAction action = escalator_.next_action(key, now);
    st.ladder_keys.insert(key);
    // Operator policy mask: a denied rung is skipped upward to the next
    // allowed one; denying everything climbs straight to give-up below.
    while (action != recovery::RecoveryAction::kGiveUp &&
           !config_.policy.allows(action)) {
      ++stats_.policy_denied;
      bump(policy_denied_ctr_);
      action = static_cast<recovery::RecoveryAction>(
          static_cast<std::uint8_t>(action) + 1);
    }
    if (action == recovery::RecoveryAction::kGiveUp) {
      // Give-up is hub-local: quarantine instead of yet another
      // full restart (the §5 "needs service" verdict, fleet-grade).
      ++stats_.give_ups;
      bump(give_ups_ctr_);
      quarantine_locked(st);
      continue;
    }

    --tokens_;
    st.token = ++token_counter_;
    st.action = static_cast<std::uint8_t>(action);
    st.unit = st.candidate;
    st.block = st.candidate_block;
    st.retries = 0;
    issue_locked(name, st, now, /*retry=*/false, outbox);
    ++stats_.sent;
    bump(sent_ctr_);
    st.acted = true;
    st.acted_unit = st.candidate;
    st.error_steps_at_action = h.error_steps;
    st.reports_at_action = h.reports;
    st.cooldown_until = now + config_.cooldown + st.jitter;
  }
  const SendFn send = outbox.empty() ? SendFn() : send_;
  lock.unlock();
  // Deliver outside the lock: a failed send closes the link, and the
  // hub's slot_down() comes back in here to mark the command lost.
  if (send) {
    for (const auto& [slot, frame] : outbox) send(slot, frame);
  }
  return outbox.size();
}

void RecoveryOrchestrator::on_ack(const std::string& slot, const ipc::Frame& frame) {
  if (frame.type != ipc::FrameType::kRecoverAck) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    ++stats_.duplicate_acks;
    bump(duplicate_acks_ctr_);
    return;
  }
  SlotState& st = it->second;
  if (!st.outstanding || frame.token != st.token) {
    // Stale or duplicate: the retry path can produce two executions of
    // one token SUO-side, hence two acks — drop the echo.
    ++stats_.duplicate_acks;
    bump(duplicate_acks_ctr_);
    return;
  }
  st.outstanding = false;
  if (frame.ok) {
    ++stats_.acked_ok;
    bump(acked_ok_ctr_);
  } else {
    ++stats_.acked_fail;
    bump(acked_fail_ctr_);
    fail_outstanding_locked(st);
  }
}

bool RecoveryOrchestrator::quarantined(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(slot);
  return it != slots_.end() && it->second.quarantined;
}

std::size_t RecoveryOrchestrator::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_locked();
}

bool RecoveryOrchestrator::has_outstanding(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(slot);
  return it != slots_.end() && it->second.outstanding;
}

RecoveryStats RecoveryOrchestrator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<RecoveryActionRecord> RecoveryOrchestrator::actions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return actions_;
}

void RecoveryOrchestrator::save_state(journal::Encoder& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.u64(stats_.sent);
  out.u64(stats_.retries);
  out.u64(stats_.timeouts);
  out.u64(stats_.lost);
  out.u64(stats_.acked_ok);
  out.u64(stats_.acked_fail);
  out.u64(stats_.duplicate_acks);
  out.u64(stats_.suppressed_unconverged);
  out.u64(stats_.suppressed_cooldown);
  out.u64(stats_.suppressed_tokens);
  out.u64(stats_.suppressed_version);
  out.u64(stats_.quarantined);
  out.u64(stats_.give_ups);
  out.u64(stats_.recovered);
  out.u64(stats_.policy_denied);
  out.u64(token_counter_);
  out.i64(tokens_);
  out.i64(last_refill_);
  escalator_.save(out);
  out.u32(static_cast<std::uint32_t>(actions_.size()));
  for (const RecoveryActionRecord& rec : actions_) {
    out.i64(rec.at);
    out.str(rec.slot);
    out.u8(static_cast<std::uint8_t>(rec.action));
    out.str(rec.unit);
    out.u32(rec.block);
    out.u64(rec.token);
    out.boolean(rec.retry);
  }
  out.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [name, st] : slots_) {
    out.str(name);
    out.u8(st.negotiated_version);
    out.boolean(st.up);
    out.boolean(st.quarantined);
    out.u32(static_cast<std::uint32_t>(st.flaps));
    out.i64(st.jitter);
    out.i64(st.cooldown_until);
    out.boolean(st.has_candidate);
    out.str(st.candidate);
    out.u32(st.candidate_block);
    out.u64(st.candidate_reports);
    out.u64(st.candidate_churn);
    out.boolean(st.outstanding);
    out.u64(st.token);
    out.u8(st.action);
    out.str(st.unit);
    out.u32(st.block);
    out.i64(st.sent_at);
    out.u32(static_cast<std::uint32_t>(st.retries));
    out.boolean(st.acted);
    out.str(st.acted_unit);
    out.u64(st.error_steps_at_action);
    out.u64(st.reports_at_action);
    out.u32(static_cast<std::uint32_t>(st.ladder_keys.size()));
    for (const std::string& key : st.ladder_keys) out.str(key);
  }
}

bool RecoveryOrchestrator::load_state(journal::Decoder& in, std::uint32_t version) {
  // Version 1 also carried a send-failure count; its image is refused.
  if (version != 2) return false;
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  actions_.clear();
  stats_ = RecoveryStats{};
  stats_.sent = in.u64();
  stats_.retries = in.u64();
  stats_.timeouts = in.u64();
  stats_.lost = in.u64();
  stats_.acked_ok = in.u64();
  stats_.acked_fail = in.u64();
  stats_.duplicate_acks = in.u64();
  stats_.suppressed_unconverged = in.u64();
  stats_.suppressed_cooldown = in.u64();
  stats_.suppressed_tokens = in.u64();
  stats_.suppressed_version = in.u64();
  stats_.quarantined = in.u64();
  stats_.give_ups = in.u64();
  stats_.recovered = in.u64();
  stats_.policy_denied = in.u64();
  token_counter_ = in.u64();
  tokens_ = in.i64();
  last_refill_ = in.i64();
  if (!escalator_.load(in)) return false;
  const std::uint32_t action_count = in.u32();
  actions_.reserve(std::min<std::size_t>(action_count, config_.action_log_limit));
  for (std::uint32_t i = 0; i < action_count && in.ok(); ++i) {
    RecoveryActionRecord rec;
    rec.at = in.i64();
    rec.slot = in.str();
    rec.action = static_cast<recovery::RecoveryAction>(in.u8());
    rec.unit = in.str();
    rec.block = in.u32();
    rec.token = in.u64();
    rec.retry = in.boolean();
    actions_.push_back(rec);
  }
  const std::uint32_t slot_count = in.u32();
  for (std::uint32_t i = 0; i < slot_count && in.ok(); ++i) {
    const std::string name = in.str();
    SlotState& st = slots_[name];
    st.negotiated_version = in.u8();
    st.up = in.boolean();
    st.quarantined = in.boolean();
    st.flaps = static_cast<int>(in.u32());
    st.jitter = in.i64();
    st.cooldown_until = in.i64();
    st.has_candidate = in.boolean();
    st.candidate = in.str();
    st.candidate_block = in.u32();
    st.candidate_reports = in.u64();
    st.candidate_churn = in.u64();
    st.outstanding = in.boolean();
    st.token = in.u64();
    st.action = in.u8();
    st.unit = in.str();
    st.block = in.u32();
    st.sent_at = in.i64();
    st.retries = static_cast<int>(in.u32());
    st.acted = in.boolean();
    st.acted_unit = in.str();
    st.error_steps_at_action = in.u64();
    st.reports_at_action = in.u64();
    const std::uint32_t keys = in.u32();
    for (std::uint32_t k = 0; k < keys && in.ok(); ++k) {
      st.ladder_keys.insert(in.str());
    }
  }
  if (!in.done()) {
    slots_.clear();
    actions_.clear();
    stats_ = RecoveryStats{};
    return false;
  }
  set_gauge(quarantined_gauge_, quarantined_locked());
  return true;
}

}  // namespace trader::hub
