// Link-gated model wrapper: graceful degradation without core changes.
//
// While a hub slot's SUO is unreachable, observations go stale; comparing
// a live model against a frozen observation table would flood the error
// stream with false alarms — exactly the §4.3 over-eager-comparator
// failure mode. The paper's escape hatch already exists in the core
// contract: IModelImpl::comparison_enabled (IEnableCompare) lets the
// model suppress comparison while the system is legitimately "between
// modes". LinkGatedModel reuses it for the process boundary: it wraps
// any model and forces comparison_enabled() to false while the shared
// link gate is down, so the Comparator quiesces (counting suppressions)
// instead of reporting nonsense — and the outage itself is reported
// exactly once by the hub's slot supervision (AwarenessHub::add_slot
// hands out the gate and flips it on handshake and teardown).
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "core/interfaces.hpp"

namespace trader::hub {

class LinkGatedModel : public core::IModelImpl {
 public:
  LinkGatedModel(std::unique_ptr<core::IModelImpl> inner,
                 std::shared_ptr<const std::atomic<bool>> link_up)
      : inner_(std::move(inner)), link_up_(std::move(link_up)) {}

  void start(runtime::SimTime now) override { inner_->start(now); }
  bool dispatch(const statemachine::SmEvent& ev, runtime::SimTime now) override {
    return inner_->dispatch(ev, now);
  }
  void advance_time(runtime::SimTime now) override { inner_->advance_time(now); }
  void drain_outputs(std::vector<statemachine::ModelOutput>& out) override {
    inner_->drain_outputs(out);
  }
  bool comparison_enabled(const std::string& observable) const override {
    if (link_up_ != nullptr && !link_up_->load(std::memory_order_relaxed)) return false;
    return inner_->comparison_enabled(observable);
  }
  std::string state_name() const override { return inner_->state_name(); }

 private:
  std::unique_ptr<core::IModelImpl> inner_;
  std::shared_ptr<const std::atomic<bool>> link_up_;
};

/// MonitorBuilder::wrap_model decorator that gates the built model on
/// `link_up`: builder.model(def).wrap_model(link_gated(hub.add_slot(name))).
inline auto link_gated(std::shared_ptr<const std::atomic<bool>> link_up) {
  return [link_up = std::move(link_up)](std::unique_ptr<core::IModelImpl> model)
             -> std::unique_ptr<core::IModelImpl> {
    return std::make_unique<LinkGatedModel>(std::move(model), link_up);
  };
}

}  // namespace trader::hub
