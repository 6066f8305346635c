// Frozen verdicts of the state-machine engine.
//
// The compiled ModelProgram on a BatchExecutor is the only engine in
// src/. It was once held step for step to a separate reference
// interpreter; that interpreter's behaviour on the seeded streams of
// exec_test and statemachine_test is kept here as FNV-1a digests over
// one canonical line per step, recorded from the interpreter at commit
// b5182d5, before it was removed. A test drives the engine on the same
// stream, folds the same lines and must reproduce the pinned digest.
//
// A line holds everything a monitor can observe after a step: the
// step's return value, the active leaf, every variable, every output
// drained by the step (name, time, fields), the fired count, the next
// deadline and the livelock flag.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "runtime/fnv.hpp"
#include "statemachine/batch.hpp"
#include "statemachine/machine.hpp"

namespace trader::statemachine {

/// Canonical text of a value: a type tag and the exact value.
inline std::string canonical(const runtime::Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return "i" + std::to_string(*i);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "b1" : "b0";
  if (const auto* s = std::get_if<std::string>(&v)) return "s'" + *s + "'";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "d%a", std::get<double>(v));
  return buf;
}

inline std::string canonical(const std::map<std::string, runtime::Value>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) out += k + "=" + canonical(v) + ";";
  return out + "}";
}

/// One step's line, from its parts.
inline std::string step_line(long ret, const std::string& leaf, const Context& vars,
                             const std::vector<ModelOutput>& outputs, std::uint64_t fired,
                             runtime::SimTime deadline, bool livelock) {
  std::string line = "r=" + std::to_string(ret) + " leaf=" + leaf + " vars=" +
                     canonical(vars.all()) + " out=[";
  for (const auto& o : outputs) {
    line += o.name + "@" + std::to_string(o.time) + canonical(o.fields);
  }
  return line + "] fired=" + std::to_string(fired) + " dl=" + std::to_string(deadline) +
         " ll=" + (livelock ? "1" : "0");
}

/// Running digest over step lines.
class StepDigest {
 public:
  /// Fold the step that returned `ret` on `m`, draining its outputs.
  /// Returns the folded line so twins can compare it step by step.
  std::string fold(StateMachine& m, long ret) {
    const auto outputs = m.drain_outputs();
    return fold_line(step_line(ret, m.active_leaf(), m.vars(), outputs, m.transitions_fired(),
                               m.next_deadline(), m.livelock_detected()));
  }
  /// The same for slot `id` of a shared batch.
  std::string fold(BatchExecutor& b, BatchExecutor::InstanceId id, long ret) {
    const auto outputs = b.drain_outputs(id);
    return fold_line(step_line(ret, b.active_leaf(id), b.vars(id), outputs,
                               b.transitions_fired(id), b.next_deadline(id),
                               b.livelock_detected(id)));
  }
  /// Fold a free-form line (a count the stream ends with).
  std::string fold_line(std::string line) {
    h_.bytes(line).byte('\n');
    return line;
  }

  std::string hex() const { return h_.hex(); }

 private:
  runtime::Fnv1a64 h_;
};

}  // namespace trader::statemachine
