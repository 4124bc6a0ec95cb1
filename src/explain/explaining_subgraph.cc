#include "explain/explaining_subgraph.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <system_error>

#include "common/check.h"
#include "common/strings.h"

namespace orx::explain {

LocalId ExplainingSubgraph::LocalOf(graph::NodeId global) const {
  auto it = local_of_.find(global);
  return it == local_of_.end() ? kInvalidLocalId : it->second;
}

void ExplainingSubgraph::BuildEdgeIndex() {
  const size_t n = nodes_.size();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const ExplainEdge& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  out_index_.resize(edges_.size());
  in_index_.resize(edges_.size());
  std::vector<uint32_t> out_cursor(out_offsets_.begin(),
                                   out_offsets_.end() - 1);
  std::vector<uint32_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t i = 0; i < edges_.size(); ++i) {
    out_index_[out_cursor[edges_[i].from]++] = i;
    in_index_[in_cursor[edges_[i].to]++] = i;
  }
}

double ExplainingSubgraph::AdjustedOutFlowSum(LocalId v) const {
  double sum = 0.0;
  for (uint32_t i : OutEdgeIndices(v)) sum += edges_[i].adjusted_flow;
  return sum;
}

double ExplainingSubgraph::AdjustedInFlowSum(LocalId v) const {
  double sum = 0.0;
  for (uint32_t i : InEdgeIndices(v)) sum += edges_[i].adjusted_flow;
  return sum;
}

namespace {

/// Longest "%.8f" rendering of a double: the sign, the 309 integer digits
/// of -DBL_MAX, the point and 8 decimals.
constexpr int kFlowDecimals = 8;
constexpr size_t kMaxFlowChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + kFlowDecimals;

/// Appends `value` as printf("%.8f") would write it: std::to_chars in
/// fixed format with a precision writes the same characters, NaN and
/// infinities included.
void AppendFlow(std::string& out, double value) {
  char buf[kMaxFlowChars];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::fixed,
                                       kFlowDecimals);
  ORX_CHECK(ec == std::errc());
  out.append(buf, end);
}

}  // namespace

std::string ExplainingSubgraph::ToString(const graph::DataGraph& data) const {
  // Each node's label is resolved once, not once per edge end.
  std::vector<std::string> labels(nodes_.size());
  for (LocalId v = 0; v < nodes_.size(); ++v) {
    labels[v] = data.DisplayLabel(nodes_[v]);
  }
  // Render edges ordered by descending explaining flow: the paths that
  // matter most to the user come first.
  std::vector<uint32_t> order(edges_.size());
  for (uint32_t i = 0; i < edges_.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return edges_[a].adjusted_flow > edges_[b].adjusted_flow;
  });

  // Per edge: 26 fixed characters, the two labels and two flows of
  // usually 10 characters each.
  size_t size = 96 + labels[target_local_].size();
  for (const ExplainEdge& e : edges_) {
    size += 48 + labels[e.from].size() + labels[e.to].size();
  }
  std::string out;
  out.reserve(size);
  out += "ExplainingSubgraph: ";
  out += std::to_string(num_nodes());
  out += " nodes, ";
  out += std::to_string(num_edges());
  out += " edges; target = ";
  out += labels[target_local_];
  out += '\n';
  for (uint32_t i : order) {
    const ExplainEdge& e = edges_[i];
    out += "  ";
    out += labels[e.from];
    out += " -> ";
    out += labels[e.to];
    out += "  flow=";
    AppendFlow(out, e.adjusted_flow);
    out += " (original ";
    AppendFlow(out, e.original_flow);
    out += ")\n";
  }
  return out;
}

std::string ExplainingSubgraph::ToDot(const graph::DataGraph& data) const {
  auto escape = [](std::string text) {
    std::string out;
    for (char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };

  std::string dot = "digraph explaining_subgraph {\n"
                    "  rankdir=LR;\n"
                    "  node [shape=box, fontsize=10];\n";
  for (LocalId v = 0; v < num_nodes(); ++v) {
    std::string label = data.DisplayLabel(nodes_[v]);
    if (label.size() > 40) label = label.substr(0, 37) + "...";
    dot += "  n" + std::to_string(v) + " [label=\"" + escape(label) + "\"";
    if (v == target_local_) {
      dot += ", peripheries=2, style=bold";
    } else if (is_source_[v]) {
      dot += ", style=filled, fillcolor=lightgray";
    }
    dot += "];\n";
  }

  double max_flow = 0.0;
  for (const ExplainEdge& e : edges_) {
    max_flow = std::max(max_flow, e.adjusted_flow);
  }
  for (const ExplainEdge& e : edges_) {
    const double share = max_flow > 0.0 ? e.adjusted_flow / max_flow : 0.0;
    dot += "  n" + std::to_string(e.from) + " -> n" + std::to_string(e.to) +
           " [label=\"" + FormatDouble(e.adjusted_flow, 6) +
           "\", penwidth=" + FormatDouble(0.5 + 3.5 * share, 2) +
           ", fontsize=8];\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace orx::explain
