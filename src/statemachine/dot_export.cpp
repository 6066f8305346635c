#include "statemachine/dot_export.hpp"

#include <sstream>

namespace trader::statemachine {

namespace {

std::string node_id(StateId s) { return "s" + std::to_string(s); }

void emit_state(const StateMachineDef& def, StateId s, std::ostringstream& os, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const StateDef& st = def.state(s);
  const bool is_initial =
      (st.parent == kNoState && def.top_initial() == s) ||
      (st.parent != kNoState && def.state(st.parent).initial_child == s);
  if (st.children.empty()) {
    os << pad << node_id(s) << " [label=\"" << st.name << "\""
       << (is_initial ? ", penwidth=2" : "") << "];\n";
    return;
  }
  os << pad << "subgraph cluster_" << s << " {\n";
  os << pad << "  label=\"" << st.name << "\";\n";
  if (is_initial) os << pad << "  penwidth=2;\n";
  for (StateId c : st.children) emit_state(def, c, os, indent + 1);
  os << pad << "}\n";
}

// An edge endpoint for a composite state: use its initial leaf with
// lhead/ltail pointing at the cluster (standard graphviz idiom).
StateId representative_leaf(const StateMachineDef& def, StateId s) {
  while (!def.state(s).children.empty()) s = def.state(s).initial_child;
  return s;
}

}  // namespace

std::string to_dot(const StateMachineDef& def) {
  std::ostringstream os;
  os << "digraph \"" << def.name() << "\" {\n";
  os << "  compound=true;\n  rankdir=LR;\n  node [shape=box, style=rounded];\n";
  for (std::size_t i = 0; i < def.states().size(); ++i) {
    const auto id = static_cast<StateId>(i);
    if (def.state(id).parent == kNoState) emit_state(def, id, os, 1);
  }
  for (const auto& t : def.transitions()) {
    std::string label;
    if (t.after > 0) {
      label = "after(" + std::to_string(t.after / 1000) + "ms)";
    } else if (t.event.empty()) {
      label = "<done>";
    } else {
      label = t.event;
    }
    if (t.guard) label += " [g]";
    if (t.internal) label += " /internal";
    const StateId src = representative_leaf(def, t.source);
    const StateId dst = t.internal ? src : representative_leaf(def, t.target);
    os << "  " << node_id(src) << " -> " << node_id(dst) << " [label=\"" << label << "\"";
    if (!def.state(t.source).children.empty()) os << ", ltail=cluster_" << t.source;
    if (!t.internal && !def.state(t.target).children.empty()) {
      os << ", lhead=cluster_" << t.target;
    }
    if (t.internal) os << ", style=dashed";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace trader::statemachine
