#include "explain/explainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include "common/timer.h"

namespace orx::explain {
namespace {

// Flags of the construction stage's one state byte per node.
enum NodeState : uint8_t {
  kInBall = 1 << 0,         // within `radius` reversed edges of the target
  kReached = 1 << 1,        // forward-reached from the base set in the ball
  kFeedsTarget = 1 << 2,    // has an authority edge into the target
  kReachesTarget = 1 << 3,  // reaches the target over pruned candidates
};

// How many queue slots ahead the two searches prefetch a node's edge
// list. Their queues hold thousands of nodes scattered over the CSR; on
// DBLPtop (4-vCPU Xeon VM) the prefetch took the construction stage's
// median from 3.4 to 3.0 ms.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

StatusOr<Explanation> Explainer::Explain(graph::NodeId target,
                                         const core::BaseSet& base,
                                         const std::vector<double>& scores,
                                         const graph::TransferRates& rates,
                                         double damping,
                                         const ExplainOptions& options) const {
  const size_t n = graph_->num_nodes();
  if (target >= n) {
    return InvalidArgumentError("target node does not exist");
  }
  if (scores.size() != n) {
    return InvalidArgumentError(
        "score vector size does not match the graph");
  }
  if (base.empty()) {
    return InvalidArgumentError("base set is empty");
  }
  if (options.radius <= 0) {
    return InvalidArgumentError("radius must be positive");
  }

  Timer construction_timer;

  // --- Construction stage (Figure 8, steps 1-2) -------------------------
  // Radius-3 balls around popular objects span most of a DBLP-shaped
  // graph (about 19k of DBLPtop's 22.6k nodes), so the two searches and
  // the edge passes below each sweep nearly every edge of the graph. All
  // per-node bookkeeping is therefore one state byte per node (NodeState
  // flags): the forward search's "in the ball and not yet reached" test
  // is a single load, and the per-call scratch stays at n bytes plus
  // O(ball + candidates). Pass 2 skips every node whose score bound
  // (below) rules out all its edges.
  // The hot loops read the CSR arrays through raw pointers: the state
  // byte stores may alias anything, which would otherwise force a reload
  // of every container's data pointer after each store.
  const uint64_t* in_offsets = graph_->in_offsets().data();
  const graph::AuthorityEdge* in_edges = graph_->in_edges().data();
  const uint64_t* out_offsets = graph_->out_offsets().data();
  const graph::AuthorityEdge* out_edges = graph_->out_edges().data();
  const double* alpha = rates.slots().data();
  const double min_rate = options.min_rate;
  // Equation 1, exactly as graph::AuthorityGraph::EdgeRate computes it.
  auto rate_of = [alpha](const graph::AuthorityEdge& e) {
    return alpha[e.rate_index] * static_cast<double>(e.inv_out_deg);
  };
  std::vector<uint8_t> state(n, 0);

  // Step 1: reverse breadth-first search from the target over edges that
  // carry authority (rate > min_rate), bounded by the radius L. An in-edge
  // u -> v is "reversed" by stepping from v to u; the in-adjacency lists
  // exactly the incoming authority edges. The search runs level by level
  // over `queue` and stops at the first empty level, so a huge radius
  // costs nothing extra. Nodes of the last level are marked but never
  // queued: they are never expanded.
  state[target] = kInBall;
  size_t ball_size = 1;
  std::vector<graph::NodeId> queue{target};
  size_t level_begin = 0;
  for (int depth = 0; depth < options.radius && level_begin < queue.size();
       ++depth) {
    const size_t level_end = queue.size();
    const bool expand_next = depth + 1 < options.radius;
    for (size_t i = level_begin; i < level_end; ++i) {
      if (i + kPrefetchDistance < level_end) {
        __builtin_prefetch(
            &in_edges[in_offsets[queue[i + kPrefetchDistance]]]);
      }
      const graph::NodeId v = queue[i];
      for (uint64_t k = in_offsets[v]; k < in_offsets[v + 1]; ++k) {
        const graph::AuthorityEdge& e = in_edges[k];
        const graph::NodeId u = e.target;  // the *source* of the in-edge
        if ((state[u] & kInBall) != 0 || rate_of(e) <= min_rate) continue;
        state[u] |= kInBall;
        ++ball_size;
        if (expand_next) queue.push_back(u);
      }
    }
    level_begin = level_end;
  }

  // Step 2: forward breadth-first search from the base-set nodes that fell
  // inside the ball, restricted to the ball, over positive-rate edges.
  // `nodes` is the search's FIFO, so it holds the nodes in discovery
  // order. That order is part of the result: it fixes the local ids, the
  // edge order, and with them the floating-point sums over a node's
  // in-edges downstream (the target's in-flow, Equation 11's term weights,
  // Equation 13's edge-type flows) and ToString's order among equal flows.
  std::vector<graph::NodeId> nodes;
  nodes.reserve(ball_size);
  for (const auto& [s, weight] : base.entries) {
    if ((state[s] & (kInBall | kReached)) != kInBall) continue;
    state[s] |= kReached;
    nodes.push_back(s);
  }
  if (nodes.empty()) {
    return NotFoundError(
        "no base-set node can reach the target within the radius");
  }
  for (size_t head = 0; head < nodes.size(); ++head) {
    if (head + kPrefetchDistance < nodes.size()) {
      __builtin_prefetch(
          &out_edges[out_offsets[nodes[head + kPrefetchDistance]]]);
    }
    const graph::NodeId u = nodes[head];
    for (uint64_t k = out_offsets[u]; k < out_offsets[u + 1]; ++k) {
      const graph::AuthorityEdge& e = out_edges[k];
      if ((state[e.target] & (kInBall | kReached)) != kInBall ||
          rate_of(e) <= min_rate) {
        continue;
      }
      state[e.target] |= kReached;
      nodes.push_back(e.target);
    }
  }
  if ((state[target] & kReached) == 0) {
    return NotFoundError(
        "the target is not reachable from the base set within the radius");
  }

  // Edge set + original flows (Equation 5): every positive-rate authority
  // edge between included nodes. Both endpoints being included means the
  // edge lies on a base-to-target walk, so it can carry authority to the
  // target.
  struct CandidateEdge {
    graph::NodeId from, to;
    uint32_t rate_index;
    double rate;
    double original_flow;
  };
  // Pass 1: the largest candidate flow, needed for the pruning threshold
  // before any edge is stored (balls can hold millions of candidates).
  double max_flow = 0.0;
  for (const graph::NodeId u : nodes) {
    const double du_score = damping * scores[u];
    if (du_score <= max_flow) continue;  // no edge of u can set a new max
    for (uint64_t k = out_offsets[u]; k < out_offsets[u + 1]; ++k) {
      const graph::AuthorityEdge& e = out_edges[k];
      if ((state[e.target] & kReached) == 0) continue;
      const double rate = rate_of(e);
      if (rate <= min_rate) continue;
      max_flow = std::max(max_flow, du_score * rate);
    }
  }

  // Pass 2: collect only the edges that survive the flow pruning
  // ("only keep the paths with high authority flow", Section 4) — edges
  // carrying a negligible share of the strongest flow are dropped, except
  // edges into the target, the explanation's subject.
  const double threshold =
      options.prune_fraction > 0.0 ? options.prune_fraction * max_flow : 0.0;
  // The score bound. For du_score >= 0, every edge of u carries flow <=
  // du_score * max_slot, where max_slot is the largest slot and at least
  // 0: a(e) = alpha(slot) * inv_out_deg <= max(alpha(slot), 0) because
  // inv_out_deg is in (0, 1] (graph/validate.h), and rounding a product
  // by a non-negative double is monotone. A node whose bound is below the
  // threshold therefore keeps no edge except one into the target, so
  // pass 2 skips it unless it feeds the target. A NaN slot breaks the
  // bound (its edges pass the rate filter with a NaN flow, which is
  // kept), and a negative du_score reverses it; such nodes are scanned.
  bool bounded = threshold > 0.0;
  double max_slot = 0.0;
  for (const double a : rates.slots()) {
    if (std::isnan(a)) bounded = false;
    max_slot = std::max(max_slot, a);
  }
  if (bounded) {
    for (uint64_t k = in_offsets[target]; k < in_offsets[target + 1]; ++k) {
      state[in_edges[k].target] |= kFeedsTarget;
    }
  }
  std::vector<CandidateEdge> candidates;
  for (const graph::NodeId u : nodes) {
    const double du_score = damping * scores[u];
    if (bounded && du_score >= 0.0 && du_score * max_slot < threshold &&
        (state[u] & kFeedsTarget) == 0) {
      continue;
    }
    for (uint64_t k = out_offsets[u]; k < out_offsets[u + 1]; ++k) {
      const graph::AuthorityEdge& e = out_edges[k];
      if ((state[e.target] & kReached) == 0) continue;
      const double rate = rate_of(e);
      if (rate <= min_rate) continue;
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
    // The reverse adjacency is a CSR over the candidates: (head, tail)
    // keys sorted by head, so each head's tails form one row, found by
    // binary search.
    std::vector<uint64_t> reverse;
    reverse.reserve(candidates.size());
    for (const CandidateEdge& e : candidates) {
      reverse.push_back(uint64_t{e.to} << 32 | e.from);
    }
    std::sort(reverse.begin(), reverse.end());
    state[target] |= kReachesTarget;
    queue.assign(1, target);
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint64_t row = uint64_t{queue[head]} << 32;
      for (auto it = std::lower_bound(reverse.begin(), reverse.end(), row);
           it != reverse.end() && (*it >> 32) == (row >> 32); ++it) {
        const auto u = static_cast<graph::NodeId>(*it);
        if ((state[u] & kReachesTarget) != 0) continue;
        state[u] |= kReachesTarget;
        queue.push_back(u);
      }
    }
    std::erase_if(candidates, [&](const CandidateEdge& e) {
      return (state[e.to] & kReachesTarget) == 0;
    });
  }

  Explanation result;
  ExplainingSubgraph& sub = result.subgraph;
  // The final node set: endpoints of surviving edges plus the target.
  sub.local_of_.emplace(target, 0);
  sub.nodes_.push_back(target);
  auto local_id = [&](graph::NodeId v) {
    auto [it, inserted] =
        sub.local_of_.emplace(v, static_cast<LocalId>(sub.nodes_.size()));
    if (inserted) sub.nodes_.push_back(v);
    return it->second;
  };
  sub.target_local_ = 0;
  for (const CandidateEdge& e : candidates) {
    ExplainEdge edge;
    edge.from = local_id(e.from);
    edge.to = local_id(e.to);
    edge.rate_index = e.rate_index;
    edge.rate = e.rate;
    edge.original_flow = e.original_flow;
    sub.edges_.push_back(edge);
  }
  sub.BuildEdgeIndex();

  // Record source flags and distances-to-target (for the reformulation's
  // decay factor). Distances are recomputed inside the subgraph: pruning
  // during forward search cannot shorten them, and every included node
  // retains a path to the target through included nodes.
  sub.is_source_.assign(sub.nodes_.size(), false);
  for (const auto& [s, weight] : base.entries) {
    const LocalId ls = sub.LocalOf(s);
    if (ls != kInvalidLocalId) sub.is_source_[ls] = true;
  }
  sub.dist_to_target_.assign(sub.nodes_.size(), -1);
  sub.dist_to_target_[sub.target_local_] = 0;
  std::deque<LocalId> local_frontier{sub.target_local_};
  while (!local_frontier.empty()) {
    const LocalId v = local_frontier.front();
    local_frontier.pop_front();
    for (uint32_t ei : sub.InEdgeIndices(v)) {
      const LocalId u = sub.edges_[ei].from;
      if (sub.dist_to_target_[u] < 0) {
        sub.dist_to_target_[u] = sub.dist_to_target_[v] + 1;
        local_frontier.push_back(u);
      }
    }
  }
  result.construction_seconds = construction_timer.ElapsedSeconds();

  // --- Flow adjustment stage (Figure 8, steps 3-7) -----------------------
  Timer adjustment_timer;
  FlowAdjustResult adjust = FlowAdjuster().Run(sub, options);
  result.adjustment_seconds = adjustment_timer.ElapsedSeconds();
  result.iterations = adjust.iterations;
  result.converged = adjust.converged;
  return result;
}

}  // namespace orx::explain
