#include "runtime/event.hpp"

#include <cmath>
#include <sstream>

namespace trader::runtime {

namespace {

double as_number(const Value& v, bool& ok) {
  ok = true;
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<double>(*i);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  ok = false;
  return 0.0;
}

}  // namespace

std::string to_string(const Value& v) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) {
          os << (x ? "true" : "false");
        } else {
          os << x;
        }
      },
      v);
  return os.str();
}

bool both_numeric(const Value& a, const Value& b) {
  bool oka = false;
  bool okb = false;
  (void)as_number(a, oka);
  (void)as_number(b, okb);
  return oka && okb;
}

double deviation(const Value& a, const Value& b) {
  bool oka = false;
  bool okb = false;
  const double na = as_number(a, oka);
  const double nb = as_number(b, okb);
  if (oka && okb) return std::abs(na - nb);
  const auto* sa = std::get_if<std::string>(&a);
  const auto* sb = std::get_if<std::string>(&b);
  if (sa != nullptr && sb != nullptr) return (*sa == *sb) ? 0.0 : 1.0;
  return 1.0;  // categorical mismatch
}

std::optional<Value> Event::field(const std::string& key) const {
  auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  return it->second;
}

std::int64_t Event::int_field(const std::string& key, std::int64_t dflt) const {
  auto it = fields.find(key);
  if (it == fields.end()) return dflt;
  if (const auto* i = std::get_if<std::int64_t>(&it->second)) return *i;
  if (const auto* d = std::get_if<double>(&it->second)) return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(&it->second)) return *b ? 1 : 0;
  return dflt;
}

double Event::num_field(const std::string& key, double dflt) const {
  auto it = fields.find(key);
  if (it == fields.end()) return dflt;
  bool ok = false;
  const double n = as_number(it->second, ok);
  return ok ? n : dflt;
}

std::string Event::str_field(const std::string& key, const std::string& dflt) const {
  auto it = fields.find(key);
  if (it == fields.end()) return dflt;
  if (const auto* s = std::get_if<std::string>(&it->second)) return *s;
  return dflt;
}

EventSlots::Index EventSlots::put(const Event& ev) {
  if (free_.empty()) {
    slots_.push_back(ev);
    // Every slot fits on the free list, so release() never allocates.
    if (free_.capacity() < slots_.size()) free_.reserve(2 * slots_.size());
    return static_cast<Index>(slots_.size() - 1);
  }
  const Index i = free_.back();
  free_.pop_back();
  slots_[i] = ev;
  return i;
}

std::string Event::describe() const {
  std::ostringstream os;
  os << "[" << timestamp << "us] " << topic << "/" << name;
  for (const auto& [k, v] : fields) os << " " << k << "=" << to_string(v);
  return os.str();
}

}  // namespace trader::runtime
