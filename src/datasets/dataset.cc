#include "datasets/dataset.h"

#include <deque>

#include "common/check.h"
#include "text/tokenizer.h"

namespace orx::datasets {

Dataset::Dataset(std::unique_ptr<graph::SchemaGraph> schema, std::string name)
    : name_(std::move(name)), schema_(std::move(schema)) {
  ORX_CHECK(schema_ != nullptr);
  data_ = std::make_unique<graph::DataGraph>(*schema_);
}

Dataset::Dataset(std::string name, std::unique_ptr<graph::SchemaGraph> schema,
                 std::unique_ptr<graph::DataGraph> data,
                 std::unique_ptr<graph::AuthorityGraph> authority,
                 std::unique_ptr<text::Corpus> corpus)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      data_(std::move(data)),
      authority_(std::move(authority)),
      corpus_(std::move(corpus)) {
  ORX_CHECK(schema_ != nullptr && data_ != nullptr && authority_ != nullptr &&
            corpus_ != nullptr);
  ORX_CHECK_MSG(&data_->schema() == schema_.get(),
                "data graph must use this dataset's schema");
}

void Dataset::Finalize(const text::CorpusOptions& corpus_options) {
  authority_ = std::make_unique<graph::AuthorityGraph>(
      graph::AuthorityGraph::Build(*data_));
  corpus_ = std::make_unique<text::Corpus>(
      text::Corpus::Build(*data_, corpus_options));
}

void Dataset::ResetData(std::unique_ptr<graph::DataGraph> data) {
  ORX_CHECK(data != nullptr);
  ORX_CHECK_MSG(&data->schema() == schema_.get(),
                "replacement data graph must use this dataset's schema");
  data_ = std::move(data);
  authority_.reset();
  corpus_.reset();
}

size_t Dataset::MemoryFootprintBytes() const {
  size_t bytes = data_->MemoryFootprintBytes();
  if (authority_ != nullptr) bytes += authority_->MemoryFootprintBytes();
  if (corpus_ != nullptr) bytes += corpus_->MemoryFootprintBytes();
  return bytes;
}

std::unique_ptr<graph::DataGraph> InducedSubgraph(
    const graph::DataGraph& data, const std::vector<bool>& seed,
    int expand_hops, const graph::SchemaGraph* target_schema) {
  const size_t n = data.num_nodes();
  ORX_CHECK(seed.size() == n);
  const graph::SchemaGraph& out_schema =
      target_schema != nullptr ? *target_schema : data.schema();
  ORX_CHECK_MSG(
      out_schema.num_node_types() == data.schema().num_node_types() &&
          out_schema.num_edge_types() == data.schema().num_edge_types(),
      "target schema must be structurally identical");

  // Undirected expansion: precompute per-node neighbor lists once.
  std::vector<bool> keep = seed;
  if (expand_hops > 0) {
    std::vector<uint32_t> degree(n, 0);
    for (const graph::DataEdge& e : data.edges()) {
      ++degree[e.from];
      ++degree[e.to];
    }
    std::vector<uint64_t> offsets(n + 1, 0);
    for (size_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree[v];
    std::vector<graph::NodeId> adj(offsets[n]);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const graph::DataEdge& e : data.edges()) {
      adj[cursor[e.from]++] = e.to;
      adj[cursor[e.to]++] = e.from;
    }

    std::deque<std::pair<graph::NodeId, int>> frontier;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (keep[v]) frontier.emplace_back(v, 0);
    }
    while (!frontier.empty()) {
      auto [v, depth] = frontier.front();
      frontier.pop_front();
      if (depth >= expand_hops) continue;
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const graph::NodeId w = adj[i];
        if (!keep[w]) {
          keep[w] = true;
          frontier.emplace_back(w, depth + 1);
        }
      }
    }
  }

  // Remap kept nodes densely, copying attributes, then re-add the induced
  // edges.
  auto out = std::make_unique<graph::DataGraph>(out_schema);
  std::vector<graph::NodeId> remap(n, graph::kInvalidNodeId);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!keep[v]) continue;
    std::vector<graph::Attribute> attrs;
    for (const graph::AttributeView a : data.Attributes(v)) {
      attrs.push_back({std::string(a.name), std::string(a.value)});
    }
    auto added = out->AddNode(data.NodeType(v), std::move(attrs));
    ORX_CHECK_OK(added);
    remap[v] = *added;
  }
  for (const graph::DataEdge& e : data.edges()) {
    if (remap[e.from] == graph::kInvalidNodeId ||
        remap[e.to] == graph::kInvalidNodeId) {
      continue;
    }
    ORX_CHECK_OK(out->AddEdge(remap[e.from], remap[e.to], e.type));
  }
  return out;
}

std::unique_ptr<graph::DataGraph> ExtractKeywordSubset(
    const graph::DataGraph& data, const text::Corpus& corpus,
    const std::string& keyword, graph::TypeId select_type, int expand_hops) {
  auto term = corpus.TermIdOf(text::NormalizeTerm(keyword));
  if (!term.has_value()) return nullptr;
  std::vector<bool> seed(data.num_nodes(), false);
  size_t selected = 0;
  for (const text::Posting& p : corpus.Postings(*term)) {
    if (data.NodeType(p.doc) == select_type) {
      seed[p.doc] = true;
      ++selected;
    }
  }
  if (selected == 0) return nullptr;
  return InducedSubgraph(data, seed, expand_hops);
}

}  // namespace orx::datasets
