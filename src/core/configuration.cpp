#include "core/configuration.hpp"

#include <sstream>

namespace trader::core {

std::string ErrorReport::describe() const {
  std::ostringstream os;
  os << "[" << detected_at << "us] error on '" << observable
     << "': expected=" << runtime::to_string(expected)
     << " observed=" << runtime::to_string(observed) << " deviation=" << deviation
     << " consecutive=" << consecutive;
  return os.str();
}

const ObservableConfig* Configuration::lookup(const std::string& observable) const {
  for (const auto& oc : config_.observables) {
    if (oc.name == observable) return &oc;
  }
  return nullptr;
}

void Configuration::set_observable(ObservableConfig oc) {
  ++version_;
  for (auto& existing : config_.observables) {
    if (existing.name == oc.name) {
      existing = std::move(oc);
      return;
    }
  }
  config_.observables.push_back(std::move(oc));
}

std::vector<std::string> Configuration::observable_names() const {
  std::vector<std::string> out;
  out.reserve(config_.observables.size());
  for (const auto& oc : config_.observables) out.push_back(oc.name);
  return out;
}

}  // namespace trader::core
