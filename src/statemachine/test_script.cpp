#include "statemachine/test_script.hpp"

#include <sstream>

#include "statemachine/machine.hpp"

namespace trader::statemachine {

ScriptResult TestScript::run(const StateMachineDef& def, runtime::SimTime start_time) const {
  ScriptResult result;
  StateMachine m(def);
  runtime::SimTime now = start_time;
  m.start(now);
  std::vector<ModelOutput> pending = m.drain_outputs();

  auto fail = [&](std::size_t idx, const std::string& msg) {
    result.failures.push_back(ScriptFailure{idx, msg});
  };

  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const auto& step = steps_[i];
    if (const auto* inj = std::get_if<Inject>(&step)) {
      m.dispatch(inj->event, now);
      for (auto& o : m.drain_outputs()) pending.push_back(std::move(o));
    } else if (const auto* adv = std::get_if<Advance>(&step)) {
      now += adv->by;
      m.advance_time(now);
      for (auto& o : m.drain_outputs()) pending.push_back(std::move(o));
    } else if (const auto* es = std::get_if<ExpectState>(&step)) {
      if (!m.in(es->state)) {
        fail(i, "expected state '" + es->state + "' active, leaf is '" + m.active_leaf() + "'");
      }
    } else if (const auto* ens = std::get_if<ExpectNotState>(&step)) {
      if (m.in(ens->state)) {
        fail(i, "expected state '" + ens->state + "' inactive, leaf is '" +
                    m.active_leaf() + "'");
      }
    } else if (const auto* ev = std::get_if<ExpectVar>(&step)) {
      const auto& vars = m.vars().all();
      const auto it = vars.find(ev->key);
      if (it == vars.end()) {
        fail(i, "variable '" + ev->key + "' not set");
      } else if (runtime::deviation(it->second, ev->value) > ev->tolerance) {
        // The deviation metric compares int and double values alike.
        fail(i, "variable '" + ev->key + "' = " + runtime::to_string(it->second) +
                    ", expected " + runtime::to_string(ev->value));
      }
    } else if (const auto* eo = std::get_if<ExpectOutput>(&step)) {
      bool found = false;
      for (const auto& o : pending) {
        if (o.name == eo->name) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::ostringstream os;
        os << "expected output '" << eo->name << "'; got {";
        for (const auto& o : pending) os << o.name << " ";
        os << "}";
        fail(i, os.str());
      }
      pending.clear();
    }
  }
  result.end_time = now;
  return result;
}

}  // namespace trader::statemachine
