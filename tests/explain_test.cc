#include "explain/explainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <deque>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "common/timer.h"
#include "core/top_k.h"
#include "datasets/bio_generator.h"
#include "datasets/dblp_generator.h"
#include "datasets/figure1.h"
#include "text/query.h"

namespace orx::explain {
namespace {

class ExplainFigure1Test : public ::testing::Test {
 protected:
  ExplainFigure1Test()
      : fig_(datasets::MakeFigure1Dataset()),
        rates_(datasets::DblpGroundTruthRates(fig_.dataset.schema(),
                                              fig_.types)),
        engine_(fig_.dataset.authority()),
        explainer_(fig_.dataset.data(), fig_.dataset.authority()) {
    text::QueryVector q(text::ParseQuery("olap"));
    base_ = *core::BuildBaseSet(fig_.dataset.corpus(), q);
    core::ObjectRankOptions options;
    options.epsilon = 1e-10;
    scores_ = engine_.Compute(base_, rates_, options).scores;
  }

  StatusOr<Explanation> ExplainV4(ExplainOptions options = {}) {
    return explainer_.Explain(fig_.v4_range_queries, base_, scores_, rates_,
                              0.85, options);
  }

  datasets::Figure1Dataset fig_;
  graph::TransferRates rates_;
  core::ObjectRankEngine engine_;
  Explainer explainer_;
  core::BaseSet base_;
  std::vector<double> scores_;
};

// Example 1 (Section 4): the explaining subgraph of v4 contains v1..v6 but
// NOT the "Data Cube" paper v7, because no authority flows from v7 to v4.
TEST_F(ExplainFigure1Test, Example1NodeSet) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  EXPECT_EQ(sub.num_nodes(), 6u);
  EXPECT_TRUE(sub.Contains(fig_.v1_index_selection));
  EXPECT_TRUE(sub.Contains(fig_.v2_icde));
  EXPECT_TRUE(sub.Contains(fig_.v3_icde1997));
  EXPECT_TRUE(sub.Contains(fig_.v4_range_queries));
  EXPECT_TRUE(sub.Contains(fig_.v5_modeling));
  EXPECT_TRUE(sub.Contains(fig_.v6_agrawal));
  EXPECT_FALSE(sub.Contains(fig_.v7_data_cube));
  EXPECT_EQ(sub.target_global(), fig_.v4_range_queries);
}

TEST_F(ExplainFigure1Test, TargetReductionFactorIsOne) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_DOUBLE_EQ(explanation->subgraph.ReductionFactor(
                       explanation->subgraph.target_local()),
                   1.0);
  EXPECT_TRUE(explanation->converged);
  EXPECT_GT(explanation->iterations, 0);
}

// "Note that the flow on edges v_i -> v, i.e., edges that end at v, are
// not adjusted" (Section 4).
TEST_F(ExplainFigure1Test, IncomingFlowsOfTargetAreUnadjusted) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  for (uint32_t ei : sub.InEdgeIndices(sub.target_local())) {
    const ExplainEdge& e = sub.edges()[ei];
    EXPECT_DOUBLE_EQ(e.adjusted_flow, e.original_flow);
  }
}

// The h fixpoint (Equation 10) must be satisfied at convergence.
TEST_F(ExplainFigure1Test, ReductionFactorsSatisfyEquation10) {
  ExplainOptions options;
  options.radius = 5;
  options.epsilon = 1e-12;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  for (LocalId v = 0; v < sub.num_nodes(); ++v) {
    if (v == sub.target_local()) continue;
    double expected = 0.0;
    for (uint32_t ei : sub.OutEdgeIndices(v)) {
      const ExplainEdge& e = sub.edges()[ei];
      expected += sub.ReductionFactor(e.to) * e.rate;
    }
    EXPECT_NEAR(sub.ReductionFactor(v), expected, 1e-9);
  }
}

TEST_F(ExplainFigure1Test, AdjustedFlowsFollowEquation7) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  for (const ExplainEdge& e : sub.edges()) {
    EXPECT_NEAR(e.adjusted_flow,
                sub.ReductionFactor(e.to) * e.original_flow, 1e-12);
    EXPECT_GE(e.adjusted_flow, 0.0);
    EXPECT_LE(e.adjusted_flow, e.original_flow + 1e-12);
    // Original flows follow Equation 5.
    EXPECT_NEAR(e.original_flow,
                0.85 * e.rate * scores_[sub.GlobalId(e.from)], 1e-12);
  }
}

TEST_F(ExplainFigure1Test, DistancesToTarget) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  auto dist = [&](graph::NodeId v) {
    return sub.DistanceToTarget(sub.LocalOf(v));
  };
  EXPECT_EQ(dist(fig_.v4_range_queries), 0);
  EXPECT_EQ(dist(fig_.v6_agrawal), 1);    // author -> paper (AP)
  EXPECT_EQ(dist(fig_.v5_modeling), 2);   // modeling -> author -> paper
  EXPECT_EQ(dist(fig_.v3_icde1997), 3);   // year -> modeling -> author -> v4
  EXPECT_EQ(dist(fig_.v1_index_selection), 4);
  EXPECT_EQ(dist(fig_.v2_icde), 4);
}

TEST_F(ExplainFigure1Test, RadiusLimitsTheSubgraph) {
  ExplainOptions options;
  options.radius = 2;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  // Within radius 2 only v4, v6 (dist 1) and v5 (dist 2) are reachable.
  EXPECT_TRUE(sub.Contains(fig_.v4_range_queries));
  EXPECT_TRUE(sub.Contains(fig_.v6_agrawal));
  EXPECT_FALSE(sub.Contains(fig_.v3_icde1997));
  EXPECT_FALSE(sub.Contains(fig_.v1_index_selection));
}

TEST_F(ExplainFigure1Test, SourceFlags) {
  ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  // Base set = {v1, v4}; both are in the subgraph and flagged as sources.
  EXPECT_TRUE(sub.IsSource(sub.LocalOf(fig_.v1_index_selection)));
  EXPECT_TRUE(sub.IsSource(sub.LocalOf(fig_.v4_range_queries)));
  EXPECT_FALSE(sub.IsSource(sub.LocalOf(fig_.v6_agrawal)));
}

TEST_F(ExplainFigure1Test, ErrorsOnBadInput) {
  EXPECT_EQ(explainer_.Explain(999, base_, scores_, rates_, 0.85, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<double> short_scores(3, 0.0);
  EXPECT_EQ(explainer_
                .Explain(fig_.v4_range_queries, base_, short_scores, rates_,
                         0.85, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ExplainOptions bad_radius;
  bad_radius.radius = 0;
  EXPECT_EQ(ExplainV4(bad_radius).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExplainFigure1Test, UnreachableTargetIsNotFound) {
  // With zero rates nothing flows anywhere: no node can be explained.
  graph::TransferRates zero(fig_.dataset.schema(), 0.0);
  auto result = explainer_.Explain(fig_.v7_data_cube, base_, scores_, zero,
                                   0.85, {});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainFigure1Test, ToStringMentionsTargetAndFlows) {
  auto explanation = ExplainV4({});
  ASSERT_TRUE(explanation.ok());
  const std::string s =
      explanation->subgraph.ToString(fig_.dataset.data());
  EXPECT_NE(s.find("Range Queries"), std::string::npos);
  EXPECT_NE(s.find("flow="), std::string::npos);
}

TEST_F(ExplainFigure1Test, ToDotRendersValidGraphviz) {
  explain::ExplainOptions options;
  options.radius = 5;
  auto explanation = ExplainV4(options);
  ASSERT_TRUE(explanation.ok());
  const ExplainingSubgraph& sub = explanation->subgraph;
  const std::string dot = sub.ToDot(fig_.dataset.data());
  EXPECT_NE(dot.find("digraph explaining_subgraph"), std::string::npos);
  // The target is double-circled; base-set sources are shaded.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);
  // One node statement per node, one edge statement per edge.
  size_t arrows = 0;
  for (size_t p = dot.find("->"); p != std::string::npos;
       p = dot.find("->", p + 2)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, sub.num_edges());
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST_F(ExplainFigure1Test, ToDotEscapesQuotes) {
  // A title with a quote must not break the DOT syntax.
  datasets::DblpTypes types;
  auto schema = datasets::MakeDblpSchema(&types);
  datasets::Dataset dataset(std::move(schema), "quote-test");
  graph::DataGraph& data = dataset.mutable_data();
  graph::NodeId a = *data.AddNode(
      types.paper, {{"Title", "A \"quoted\" olap title"}});
  graph::NodeId b = *data.AddNode(types.paper, {{"Title", "plain olap"}});
  ASSERT_TRUE(data.AddEdge(b, a, types.cites).ok());
  dataset.Finalize();

  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dataset.schema(), types);
  core::ObjectRankEngine engine(dataset.authority());
  text::QueryVector q(text::ParseQuery("olap"));
  auto base = core::BuildBaseSet(dataset.corpus(), q);
  ASSERT_TRUE(base.ok());
  auto rank = engine.Compute(*base, rates, {});
  Explainer explainer(dataset.data(), dataset.authority());
  auto explanation = explainer.Explain(a, *base, rank.scores, rates, 0.85,
                                       {});
  ASSERT_TRUE(explanation.ok());
  const std::string dot = explanation->subgraph.ToDot(dataset.data());
  EXPECT_NE(dot.find("\\\"quoted\\\""), std::string::npos);
}

// On a larger generated graph, the explaining fixpoint converges in a few
// iterations (Table 3 reports 4-11) and every invariant holds.
TEST(ExplainGeneratedTest, InvariantsOnGeneratedDblp) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/600, /*seed=*/17));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  text::QueryVector q(text::ParseQuery("data"));
  auto base = core::BuildBaseSet(dblp.dataset.corpus(), q);
  ASSERT_TRUE(base.ok());
  core::ObjectRankEngine engine(dblp.dataset.authority());
  auto rank = engine.Compute(*base, rates, {});

  // Explain the top-ranked paper.
  graph::NodeId best = 0;
  for (graph::NodeId v = 1; v < rank.scores.size(); ++v) {
    if (dblp.dataset.data().NodeType(v) == dblp.types.paper &&
        rank.scores[v] > rank.scores[best]) {
      best = v;
    }
  }
  Explainer explainer(dblp.dataset.data(), dblp.dataset.authority());
  ExplainOptions options;
  options.radius = 3;
  auto explanation =
      explainer.Explain(best, *base, rank.scores, rates, 0.85, options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation->converged);
  EXPECT_GE(explanation->iterations, 1);
  EXPECT_LE(explanation->iterations, 200);
  const ExplainingSubgraph& sub = explanation->subgraph;
  EXPECT_GT(sub.num_nodes(), 1u);
  EXPECT_GT(sub.num_edges(), 0u);
  for (LocalId v = 0; v < sub.num_nodes(); ++v) {
    const double h = sub.ReductionFactor(v);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0 + 1e-9);  // rates sum <= 1 per type, so h <= 1
    // Every node reaches the target (flow pruning removes dead ends). The
    // distance can exceed the radius: the radius bounds the candidate
    // ball, and pruning may leave only a longer high-flow path.
    EXPECT_GE(sub.DistanceToTarget(v), 0);
  }
}

// --- Equivalence oracle ----------------------------------------------------
//
// A straightforward construction stage (a dense depth array, deques,
// hash-map pruning, no score bound) as the reference the explainer must
// match bit for bit. It returns the surviving edges in the order the
// explainer stores them.

struct CandidateEdge {
  graph::NodeId from, to;
  uint32_t rate_index;
  double rate;
  double original_flow;
};

StatusOr<std::vector<CandidateEdge>> ReferenceConstruction(
    const graph::AuthorityGraph& graph, graph::NodeId target,
    const core::BaseSet& base, const std::vector<double>& scores,
    const graph::TransferRates& rates, double damping,
    const ExplainOptions& options) {
  const size_t n = graph.num_nodes();
  // Step 1: reverse breadth-first search from the target over edges that
  // carry authority (rate > min_rate), bounded by the radius L. An in-edge
  // u -> v is "reversed" by stepping from v to u; InEdges gives exactly
  // the incoming authority edges.
  constexpr int16_t kUnvisited = -1;
  std::vector<int16_t> ball_depth(n, kUnvisited);
  ball_depth[target] = 0;
  std::deque<graph::NodeId> frontier{target};
  while (!frontier.empty()) {
    const graph::NodeId v = frontier.front();
    frontier.pop_front();
    const int16_t dv = ball_depth[v];
    if (dv >= options.radius) continue;
    for (const graph::AuthorityEdge& e : graph.InEdges(v)) {
      const graph::NodeId u = e.target;  // the *source* of the in-edge
      if (ball_depth[u] != kUnvisited) continue;
      if (graph::AuthorityGraph::EdgeRate(e, rates) <= options.min_rate) {
        continue;
      }
      ball_depth[u] = static_cast<int16_t>(dv + 1);
      frontier.push_back(u);
    }
  }

  // Step 2: forward breadth-first search from the base-set nodes that fell
  // inside the ball, restricted to the ball, over positive-rate edges.
  std::vector<uint8_t> forward_reached(n, 0);
  std::vector<graph::NodeId> nodes;  // deterministic discovery order
  for (const auto& [s, weight] : base.entries) {
    if (ball_depth[s] == kUnvisited || forward_reached[s] != 0) continue;
    forward_reached[s] = 1;
    nodes.push_back(s);
    frontier.push_back(s);
  }
  if (nodes.empty()) {
    return NotFoundError(
        "no base-set node can reach the target within the radius");
  }
  while (!frontier.empty()) {
    const graph::NodeId u = frontier.front();
    frontier.pop_front();
    for (const graph::AuthorityEdge& e : graph.OutEdges(u)) {
      if (ball_depth[e.target] == kUnvisited ||
          forward_reached[e.target] != 0) {
        continue;
      }
      if (graph::AuthorityGraph::EdgeRate(e, rates) <= options.min_rate) {
        continue;
      }
      forward_reached[e.target] = 1;
      nodes.push_back(e.target);
      frontier.push_back(e.target);
    }
  }
  if (forward_reached[target] == 0) {
    return NotFoundError(
        "the target is not reachable from the base set within the radius");
  }

  // Pass 1: the largest candidate flow, needed for the pruning threshold
  // before any edge is stored (balls can hold millions of candidates).
  double max_flow = 0.0;
  for (const graph::NodeId u : nodes) {
    const double du_score = damping * scores[u];
    if (du_score <= max_flow) continue;  // no edge of u can set a new max
    for (const graph::AuthorityEdge& e : graph.OutEdges(u)) {
      if (forward_reached[e.target] == 0) continue;
      const double rate = graph::AuthorityGraph::EdgeRate(e, rates);
      if (rate <= options.min_rate) continue;
      max_flow = std::max(max_flow, du_score * rate);
    }
  }

  // Pass 2: collect only the edges that survive the flow pruning
  // ("only keep the paths with high authority flow", Section 4) — edges
  // carrying a negligible share of the strongest flow are dropped, except
  // edges into the target, the explanation's subject.
  const double threshold =
      options.prune_fraction > 0.0 ? options.prune_fraction * max_flow : 0.0;
  std::vector<CandidateEdge> candidates;
  for (const graph::NodeId u : nodes) {
    const double du_score = damping * scores[u];
    for (const graph::AuthorityEdge& e : graph.OutEdges(u)) {
      if (forward_reached[e.target] == 0) continue;
      const double rate = graph::AuthorityGraph::EdgeRate(e, rates);
      if (rate <= options.min_rate) continue;
      const double flow = du_score * rate;
      if (flow < threshold && e.target != target) continue;
      candidates.push_back(CandidateEdge{u, e.target, e.rate_index, rate,
                                         flow});
    }
  }

  if (options.prune_fraction > 0.0 && max_flow > 0.0) {
    // Pruning may strand edges whose head no longer reaches the target;
    // flow into a dead end explains nothing, so keep only edges whose
    // head is backward-reachable from the target over surviving edges.
    std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> in_of;
    for (const CandidateEdge& e : candidates) {
      in_of[e.to].push_back(e.from);
    }
    std::unordered_map<graph::NodeId, bool> reaches;
    reaches.emplace(target, true);
    std::deque<graph::NodeId> queue{target};
    while (!queue.empty()) {
      const graph::NodeId v = queue.front();
      queue.pop_front();
      auto it = in_of.find(v);
      if (it == in_of.end()) continue;
      for (graph::NodeId u : it->second) {
        if (reaches.emplace(u, true).second) queue.push_back(u);
      }
    }
    std::erase_if(candidates, [&](const CandidateEdge& e) {
      return reaches.find(e.to) == reaches.end();
    });
  }
  return candidates;
}

/// What the public view of an Explanation must equal: the reference
/// edges with local ids in first-seen order (target first), the source
/// flags, the distances, and the Equation 10 fixpoint summed in
/// FlowAdjuster's order (each node's out-edges by ascending edge index).
struct ReferenceExplanation {
  std::vector<graph::NodeId> nodes;
  std::vector<ExplainEdge> edges;
  std::vector<bool> is_source;
  std::vector<int> dist;
  std::vector<double> h;
  int iterations = 0;
  bool converged = false;
};

StatusOr<ReferenceExplanation> ReferenceExplain(
    const graph::AuthorityGraph& graph, graph::NodeId target,
    const core::BaseSet& base, const std::vector<double>& scores,
    const graph::TransferRates& rates, double damping,
    const ExplainOptions& options) {
  auto candidates = ReferenceConstruction(graph, target, base, scores, rates,
                                          damping, options);
  if (!candidates.ok()) return candidates.status();
  ReferenceExplanation ref;
  std::unordered_map<graph::NodeId, LocalId> local_of{{target, 0}};
  ref.nodes.push_back(target);
  auto local_id = [&](graph::NodeId v) {
    auto [it, inserted] =
        local_of.emplace(v, static_cast<LocalId>(ref.nodes.size()));
    if (inserted) ref.nodes.push_back(v);
    return it->second;
  };
  for (const CandidateEdge& c : *candidates) {
    ExplainEdge e;
    e.from = local_id(c.from);
    e.to = local_id(c.to);
    e.rate_index = c.rate_index;
    e.rate = c.rate;
    e.original_flow = c.original_flow;
    ref.edges.push_back(e);
  }
  const size_t m = ref.nodes.size();
  std::vector<std::vector<uint32_t>> out_of(m), in_of(m);
  for (uint32_t i = 0; i < ref.edges.size(); ++i) {
    out_of[ref.edges[i].from].push_back(i);
    in_of[ref.edges[i].to].push_back(i);
  }

  ref.is_source.assign(m, false);
  for (const auto& [s, weight] : base.entries) {
    auto it = local_of.find(s);
    if (it != local_of.end()) ref.is_source[it->second] = true;
  }
  ref.dist.assign(m, -1);
  ref.dist[0] = 0;
  std::deque<LocalId> frontier{0};
  while (!frontier.empty()) {
    const LocalId v = frontier.front();
    frontier.pop_front();
    for (uint32_t ei : in_of[v]) {
      const LocalId u = ref.edges[ei].from;
      if (ref.dist[u] < 0) {
        ref.dist[u] = ref.dist[v] + 1;
        frontier.push_back(u);
      }
    }
  }

  std::vector<double> in_flow(m, 0.0);
  for (const ExplainEdge& e : ref.edges) in_flow[e.to] += e.original_flow;
  ref.h.assign(m, 1.0);
  std::vector<double> next(m, 0.0);
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    for (LocalId vk = 0; vk < m; ++vk) {
      double sum = 0.0;
      for (uint32_t ei : out_of[vk]) {
        sum += ref.h[ref.edges[ei].to] * ref.edges[ei].rate;
      }
      next[vk] = vk == 0 ? 1.0 : sum;
    }
    double weighted_delta = 0.0;
    double weighted_total = 0.0;
    for (size_t v = 0; v < m; ++v) {
      weighted_delta += std::fabs(next[v] - ref.h[v]) * in_flow[v];
      weighted_total += next[v] * in_flow[v];
    }
    ref.h.swap(next);
    ref.iterations = iter;
    if (weighted_delta <= options.epsilon * std::max(weighted_total,
                                                      1e-300)) {
      ref.converged = true;
      break;
    }
  }
  for (ExplainEdge& e : ref.edges) {
    e.adjusted_flow = ref.h[e.to] * e.original_flow;
  }
  return ref;
}

/// ExplainingSubgraph::ToString over the reference.
std::string ReferenceToString(const ReferenceExplanation& ref,
                              const graph::DataGraph& data) {
  std::string out = "ExplainingSubgraph: " + std::to_string(ref.nodes.size()) +
                    " nodes, " + std::to_string(ref.edges.size()) +
                    " edges; target = " + data.DisplayLabel(ref.nodes[0]) +
                    "\n";
  std::vector<uint32_t> order(ref.edges.size());
  for (uint32_t i = 0; i < ref.edges.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return ref.edges[a].adjusted_flow > ref.edges[b].adjusted_flow;
  });
  for (uint32_t i : order) {
    const ExplainEdge& e = ref.edges[i];
    out += "  " + data.DisplayLabel(ref.nodes[e.from]) + " -> " +
           data.DisplayLabel(ref.nodes[e.to]) +
           "  flow=" + FormatDouble(e.adjusted_flow, 8) +
           " (original " + FormatDouble(e.original_flow, 8) + ")\n";
  }
  return out;
}

constexpr size_t kMaxRenderedEdges = 256;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Empty when `got` equals `want` bit for bit through the public view of
/// an Explanation; otherwise the first difference.
std::string Mismatch(const StatusOr<Explanation>& got,
                     const StatusOr<ReferenceExplanation>& want,
                     const graph::DataGraph& data) {
  if (got.ok() != want.ok()) {
    return "status " + got.status().ToString() + " vs " +
           want.status().ToString();
  }
  if (!got.ok()) {
    return got.status().ToString() == want.status().ToString()
               ? ""
               : "error " + got.status().ToString() + " vs " +
                     want.status().ToString();
  }
  const ExplainingSubgraph& sub = got->subgraph;
  const ReferenceExplanation& ref = *want;
  if (sub.num_nodes() != ref.nodes.size()) return "node count";
  if (sub.num_edges() != ref.edges.size()) return "edge count";
  if (sub.target_local() != 0) return "target local id";
  for (LocalId v = 0; v < ref.nodes.size(); ++v) {
    const std::string at = " of local node " + std::to_string(v);
    if (sub.GlobalId(v) != ref.nodes[v]) return "global id" + at;
    if (!SameBits(sub.ReductionFactor(v), ref.h[v])) return "h" + at;
    if (sub.DistanceToTarget(v) != ref.dist[v]) return "distance" + at;
    if (sub.IsSource(v) != ref.is_source[v]) return "source flag" + at;
  }
  for (size_t i = 0; i < ref.edges.size(); ++i) {
    const ExplainEdge& a = sub.edges()[i];
    const ExplainEdge& b = ref.edges[i];
    if (a.from != b.from || a.to != b.to || a.rate_index != b.rate_index ||
        !SameBits(a.rate, b.rate) ||
        !SameBits(a.original_flow, b.original_flow) ||
        !SameBits(a.adjusted_flow, b.adjusted_flow)) {
      return "edge " + std::to_string(i);
    }
  }
  if (got->iterations != ref.iterations) return "iterations";
  if (got->converged != ref.converged) return "converged";
  // Given equal edges in equal order the rendering is determined; it is
  // compared where it is cheap, which covers every pruned subgraph.
  if (ref.edges.size() <= kMaxRenderedEdges &&
      sub.ToString(data) != ReferenceToString(ref, data)) {
    return "ToString";
  }
  return "";
}

/// The `count` corpus terms with the highest document frequency.
std::vector<std::string> HeadTerms(const text::Corpus& corpus, size_t count) {
  std::vector<text::TermId> ids(corpus.vocab_size());
  for (text::TermId t = 0; t < ids.size(); ++t) ids[t] = t;
  std::stable_sort(ids.begin(), ids.end(), [&](text::TermId a,
                                               text::TermId b) {
    return corpus.Df(a) > corpus.Df(b);
  });
  std::vector<std::string> terms;
  for (size_t i = 0; i < ids.size() && i < count; ++i) {
    terms.push_back(corpus.TermString(ids[i]));
  }
  return terms;
}

/// Explains the top-10 results and one base-set member of each query over
/// the grid of radii, prune fractions, rate cases and score vectors, and
/// compares every answer with the reference. Returns how many explained.
size_t ExpectEquivalentOverGrid(const datasets::Dataset& dataset,
                                const graph::TransferRates& rates,
                                const std::vector<std::string>& queries) {
  const graph::AuthorityGraph& graph = dataset.authority();
  Explainer explainer(dataset.data(), graph);
  core::ObjectRankEngine engine(graph);

  // min_rate -0.1 lets the negative slot's edges (rates -0.2 *
  // inv_out_deg) through; uniform rates make every slot the largest, so
  // flows tie with the score bound.
  graph::TransferRates negative_slot = rates;
  negative_slot.set_slot(graph.out_edges()[0].rate_index, -0.2);
  const graph::TransferRates uniform(dataset.schema(), 0.2);
  struct RateCase {
    const char* name;
    const graph::TransferRates* rates;
    double min_rate;
  };
  const RateCase rate_cases[] = {{"ground truth", &rates, 0.0},
                                 {"ground truth", &rates, 0.05},
                                 {"negative slot", &negative_slot, -0.1},
                                 {"negative slot", &negative_slot, 0.0},
                                 {"uniform", &uniform, 0.0}};

  size_t explained = 0;
  for (const std::string& query : queries) {
    auto base =
        core::BuildBaseSet(dataset.corpus(), text::QueryVector(
                                                 text::ParseQuery(query)));
    EXPECT_TRUE(base.ok()) << query;
    if (!base.ok()) continue;
    const std::vector<double> scores = engine.Compute(*base, rates, {}).scores;
    std::vector<double> negated = scores;
    for (size_t v = 0; v < negated.size(); v += 5) negated[v] = -negated[v];

    std::vector<graph::NodeId> targets;
    for (const core::ScoredNode& r : core::TopK(scores, 10)) {
      targets.push_back(r.node);
    }
    targets.push_back(base->entries.back().first);

    for (const std::vector<double>* score_vector :
         {&scores, static_cast<const std::vector<double>*>(&negated)}) {
      for (const graph::NodeId target : targets) {
        for (const int radius : {1, 2, 3, 4, INT_MAX}) {
          for (const double prune : {0.0, 0.01, 0.3, 1.0}) {
            for (const RateCase& rc : rate_cases) {
              ExplainOptions options;
              options.radius = radius;
              options.prune_fraction = prune;
              options.min_rate = rc.min_rate;
              // INT_MAX must answer what a radius of n answers.
              ExplainOptions ref_options = options;
              if (radius == INT_MAX) {
                ref_options.radius = static_cast<int>(graph.num_nodes());
              }
              auto got = explainer.Explain(target, *base, *score_vector,
                                           *rc.rates, 0.85, options);
              auto want = ReferenceExplain(graph, target, *base,
                                           *score_vector, *rc.rates, 0.85,
                                           ref_options);
              const std::string diff = Mismatch(got, want, dataset.data());
              EXPECT_EQ(diff, "")
                  << "query '" << query << "' target " << target
                  << " radius " << radius << " prune " << prune << " rates "
                  << rc.name << " min_rate " << rc.min_rate
                  << (score_vector == &negated ? " negated scores" : "");
              if (!diff.empty()) return explained;
              if (got.ok()) ++explained;
            }
          }
        }
      }
    }
  }
  return explained;
}

TEST(ExplainEquivalenceTest, GeneratedDblpMatchesTheReference) {
  for (const uint64_t seed : {17u, 29u}) {
    datasets::DblpDataset dblp = datasets::GenerateDblp(
        datasets::DblpGeneratorConfig::Tiny(/*papers=*/200, seed));
    const graph::TransferRates rates =
        datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
    EXPECT_GT(ExpectEquivalentOverGrid(dblp.dataset, rates,
                                       HeadTerms(dblp.dataset.corpus(), 2)),
              1000u)
        << "seed " << seed;
  }
}

TEST(ExplainEquivalenceTest, GeneratedBioMatchesTheReference) {
  datasets::BioDataset bio =
      datasets::GenerateBio(datasets::BioGeneratorConfig::Tiny(150, 7));
  const graph::TransferRates rates =
      datasets::BioGroundTruthRates(bio.dataset.schema(), bio.types);
  EXPECT_GT(ExpectEquivalentOverGrid(bio.dataset, rates,
                                     HeadTerms(bio.dataset.corpus(), 2)),
            1000u);
}

TEST(ExplainEquivalenceTest, Figure1MatchesTheReference) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  EXPECT_GT(ExpectEquivalentOverGrid(fig.dataset, rates, {"olap", "data"}),
            100u);
}

TEST(ExplainEquivalenceTest, NanSlotMatchesTheReference) {
  // A NaN rate passes the rate filter and its NaN flow survives pruning,
  // so no score bound may skip the edge.
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/200, /*seed=*/17));
  const graph::AuthorityGraph& graph = dblp.dataset.authority();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  auto base = core::BuildBaseSet(
      dblp.dataset.corpus(),
      text::QueryVector(text::ParseQuery(HeadTerms(dblp.dataset.corpus(),
                                                   1)[0])));
  ASSERT_TRUE(base.ok());
  const std::vector<double> scores =
      core::ObjectRankEngine(graph).Compute(*base, rates, {}).scores;
  graph::TransferRates nan_slot = rates;
  nan_slot.set_slot(graph.out_edges()[0].rate_index, std::nan(""));
  Explainer explainer(dblp.dataset.data(), graph);
  for (const core::ScoredNode& r : core::TopK(scores, 3)) {
    for (const double prune : {0.01, 0.3}) {
      ExplainOptions options;
      options.prune_fraction = prune;
      options.max_iterations = 5;
      EXPECT_EQ(Mismatch(explainer.Explain(r.node, *base, scores, nan_slot,
                                           0.85, options),
                         ReferenceExplain(graph, r.node, *base, scores,
                                          nan_slot, 0.85, options),
                         dblp.dataset.data()),
                "")
          << "target " << r.node << " prune " << prune;
    }
  }
}

TEST(ExplainEquivalenceTest, HugeRadiusStopsAtTheLastNonEmptyLevel) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/200, /*seed=*/17));
  const graph::AuthorityGraph& graph = dblp.dataset.authority();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  auto base = core::BuildBaseSet(
      dblp.dataset.corpus(),
      text::QueryVector(text::ParseQuery(HeadTerms(dblp.dataset.corpus(),
                                                   1)[0])));
  ASSERT_TRUE(base.ok());
  const std::vector<double> scores =
      core::ObjectRankEngine(graph).Compute(*base, rates, {}).scores;
  const graph::NodeId target = core::TopK(scores, 1)[0].node;
  Explainer explainer(dblp.dataset.data(), graph);
  ExplainOptions huge;
  huge.radius = INT_MAX;
  ExplainOptions graph_sized = huge;
  graph_sized.radius = static_cast<int>(graph.num_nodes());

  Timer timer;
  auto got = explainer.Explain(target, *base, scores, rates, 0.85, huge);
  // Two billion idle levels would take seconds; the search needs about
  // the graph's diameter.
  EXPECT_LT(timer.ElapsedSeconds(), 0.5);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Mismatch(got,
                     ReferenceExplain(graph, target, *base, scores, rates,
                                      0.85, graph_sized),
                     dblp.dataset.data()),
            "");
  auto sized = explainer.Explain(target, *base, scores, rates, 0.85,
                                 graph_sized);
  ASSERT_TRUE(sized.ok());
  EXPECT_EQ(got->subgraph.ToString(dblp.dataset.data()),
            sized->subgraph.ToString(dblp.dataset.data()));
}

TEST(ExplainEquivalenceTest, BothNotFoundPathsMatchTheReference) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  Explainer explainer(fig.dataset.data(), fig.dataset.authority());
  auto base = core::BuildBaseSet(fig.dataset.corpus(),
                                 text::QueryVector(text::ParseQuery("olap")));
  ASSERT_TRUE(base.ok());
  const std::vector<double> scores(fig.dataset.data().num_nodes(), 0.1);

  // No base-set node in the ball: zero rates leave the target alone.
  const graph::TransferRates zero(fig.dataset.schema(), 0.0);
  auto got = explainer.Explain(fig.v7_data_cube, *base, scores, zero, 0.85,
                               {});
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Mismatch(got,
                     ReferenceExplain(fig.dataset.authority(),
                                      fig.v7_data_cube, *base, scores, zero,
                                      0.85, {}),
                     fig.dataset.data()),
            "");

  // A base-set node in the ball that cannot reach the target: only a
  // graph whose two CSR halves disagree (which deep validation rejects)
  // gets there. The in-half says 0 -> 1; the out-half says 1 -> 0.
  const std::vector<uint64_t> out_offsets = {0, 0, 1};
  const std::vector<graph::AuthorityEdge> out_edges = {{0, 1.0f, 0}};
  const std::vector<uint64_t> in_offsets = {0, 0, 1};
  const std::vector<graph::AuthorityEdge> in_edges = {{0, 1.0f, 0}};
  auto split = graph::AuthorityGraph::FromParts(out_offsets, out_edges,
                                                in_offsets, in_edges,
                                                nullptr);
  ASSERT_TRUE(split.ok()) << split.status();
  const graph::TransferRates half(fig.dataset.schema(), 0.5);
  const core::BaseSet source{{{0, 1.0}}};
  const std::vector<double> two_scores = {0.5, 0.5};
  Explainer split_explainer(fig.dataset.data(), *split);
  auto stranded =
      split_explainer.Explain(1, source, two_scores, half, 0.85, {});
  EXPECT_EQ(stranded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(stranded.status().message().find("not reachable"),
            std::string::npos);
  EXPECT_EQ(Mismatch(stranded,
                     ReferenceExplain(*split, 1, source, two_scores, half,
                                      0.85, {}),
                     fig.dataset.data()),
            "");
}

/// The characters of the longest number rendered after "flow=" or
/// "(original " in `text`.
size_t LongestRenderedFlow(const std::string& text) {
  size_t longest = 0;
  for (const std::string_view marker : {"flow=", "(original "}) {
    for (size_t at = text.find(marker); at != std::string::npos;
         at = text.find(marker, at + 1)) {
      const size_t begin = at + marker.size();
      const size_t end = text.find_first_of(" )", begin);
      longest = std::max(longest, end - begin);
    }
  }
  return longest;
}

TEST(ExplainRenderTest, LargeSubgraphsRenderAsTheReference) {
  // Mismatch renders only subgraphs of at most kMaxRenderedEdges edges;
  // these are DBLP-size ones (radius 3, pruned and unpruned).
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/4000, /*seed=*/17));
  const graph::AuthorityGraph& graph = dblp.dataset.authority();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  Explainer explainer(dblp.dataset.data(), graph);
  size_t largest = 0;
  for (const std::string& query : HeadTerms(dblp.dataset.corpus(), 2)) {
    auto base = core::BuildBaseSet(
        dblp.dataset.corpus(), text::QueryVector(text::ParseQuery(query)));
    ASSERT_TRUE(base.ok()) << query;
    const std::vector<double> scores =
        core::ObjectRankEngine(graph).Compute(*base, rates, {}).scores;
    for (const core::ScoredNode& r : core::TopK(scores, 3)) {
      for (const double prune : {0.0, 0.01}) {
        ExplainOptions options;
        options.prune_fraction = prune;
        auto got = explainer.Explain(r.node, *base, scores, rates, 0.85,
                                     options);
        auto want = ReferenceExplain(graph, r.node, *base, scores, rates,
                                     0.85, options);
        ASSERT_EQ(Mismatch(got, want, dblp.dataset.data()), "")
            << "query '" << query << "' target " << r.node;
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->subgraph.ToString(dblp.dataset.data()),
                  ReferenceToString(*want, dblp.dataset.data()))
            << "query '" << query << "' target " << r.node << " prune "
            << prune;
        largest = std::max(largest, got->subgraph.num_edges());
      }
    }
  }
  EXPECT_GT(largest, 10 * kMaxRenderedEdges);
}

TEST(ExplainRenderTest, SpecialFlowsRenderAsPrintfDoes) {
  // Flows are d * a(e) * r(u), so synthetic score vectors of NaN, -NaN,
  // infinities, signed zeros, subnormals and huge values give flows of
  // the same kinds. Under rates of 1, a(e) is 1 on the out-edges of a
  // node with one out-edge, and damping 1 then renders -DBL_MAX itself:
  // the longest "%.8f" there is.
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  const graph::DataGraph& data = fig.dataset.data();
  const graph::AuthorityGraph& graph = fig.dataset.authority();
  auto base = core::BuildBaseSet(fig.dataset.corpus(),
                                 text::QueryVector(text::ParseQuery("olap")));
  ASSERT_TRUE(base.ok());
  const double specials[] = {std::nan(""),
                             -std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -1e-310,
                             1e300,
                             -1e300,
                             -std::numeric_limits<double>::max()};
  const graph::TransferRates ones(fig.dataset.schema(), 1.0);
  const graph::TransferRates ground_truth =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  Explainer explainer(data, graph);
  ExplainOptions options;
  options.radius = 5;
  options.prune_fraction = 0.0;
  options.max_iterations = 5;
  std::string rendered;
  for (size_t shift = 0; shift < std::size(specials); ++shift) {
    std::vector<double> scores(data.num_nodes());
    for (size_t v = 0; v < scores.size(); ++v) {
      scores[v] = specials[(v + shift) % std::size(specials)];
    }
    for (const graph::TransferRates* rates : {&ones, &ground_truth}) {
      for (const double damping : {1.0, 0.85}) {
        for (graph::NodeId target = 0; target < data.num_nodes(); ++target) {
          auto got = explainer.Explain(target, *base, scores, *rates,
                                       damping, options);
          auto want = ReferenceExplain(graph, target, *base, scores, *rates,
                                       damping, options);
          ASSERT_EQ(got.ok(), want.ok()) << "target " << target;
          if (!got.ok()) continue;
          const std::string text = got->subgraph.ToString(data);
          EXPECT_EQ(text, ReferenceToString(*want, data))
              << "target " << target << " shift " << shift;
          rendered += text;
        }
      }
    }
  }
  for (const char* flow : {"flow=nan", "flow=-nan", "flow=inf", "flow=-inf",
                           "flow=-0.00000000", "flow=0.00000000",
                           "flow=1000000000000000052504760255204420248704",
                           "flow=-1000000000000000052504760255204420248704",
                           "flow=-17976931348623157081452742373170435679"}) {
    EXPECT_NE(rendered.find(flow), std::string::npos) << flow;
  }
  // Sign, 309 integer digits, point, 8 decimals.
  EXPECT_EQ(LongestRenderedFlow(rendered), 319u);
}

}  // namespace
}  // namespace orx::explain
