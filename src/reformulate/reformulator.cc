#include "reformulate/reformulator.h"

#include <algorithm>
#include <unordered_map>

#include "common/timer.h"

namespace orx::reform {
namespace {

// Combines per-object term-weight lists under the chosen monotone
// aggregate (Equation 14 generalized beyond summation).
std::vector<std::pair<std::string, double>> AggregateTermWeights(
    const std::vector<std::vector<std::pair<std::string, double>>>& per_object,
    AggregateKind kind) {
  if (kind == AggregateKind::kSum && per_object.size() == 1) {
    return per_object.front();
  }
  struct Acc {
    double sum = 0.0, mn = 0.0, mx = 0.0;
    size_t count = 0;
  };
  std::unordered_map<std::string, Acc> accs;
  for (const auto& object_weights : per_object) {
    for (const auto& [term, w] : object_weights) {
      Acc& a = accs[term];
      if (a.count == 0) {
        a.mn = a.mx = w;
      } else {
        a.mn = std::min(a.mn, w);
        a.mx = std::max(a.mx, w);
      }
      a.sum += w;
      ++a.count;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  out.reserve(accs.size());
  const size_t objects = per_object.size();
  for (const auto& [term, a] : accs) {
    double value = 0.0;
    switch (kind) {
      case AggregateKind::kSum:
        value = a.sum;
        break;
      case AggregateKind::kMin:
        // A term absent from some object's subgraph has weight 0 there.
        value = a.count == objects ? a.mn : 0.0;
        break;
      case AggregateKind::kMax:
        value = a.mx;
        break;
      case AggregateKind::kAvg:
        value = a.sum / static_cast<double>(objects);
        break;
    }
    if (value > 0.0) out.emplace_back(term, value);
  }
  return out;
}

// Combines per-object edge-type flow vectors (Equation 15 generalized).
std::vector<double> AggregateFlows(
    const std::vector<std::vector<double>>& per_object, AggregateKind kind) {
  std::vector<double> out;
  if (per_object.empty()) return out;
  const size_t slots = per_object.front().size();
  out.assign(slots, 0.0);
  for (size_t s = 0; s < slots; ++s) {
    double sum = 0.0, mn = per_object.front()[s], mx = per_object.front()[s];
    for (const auto& flows : per_object) {
      sum += flows[s];
      mn = std::min(mn, flows[s]);
      mx = std::max(mx, flows[s]);
    }
    switch (kind) {
      case AggregateKind::kSum:
        out[s] = sum;
        break;
      case AggregateKind::kMin:
        out[s] = mn;
        break;
      case AggregateKind::kMax:
        out[s] = mx;
        break;
      case AggregateKind::kAvg:
        out[s] = sum / static_cast<double>(per_object.size());
        break;
    }
  }
  return out;
}

}  // namespace

StatusOr<ReformulationResult> Reformulator::Reformulate(
    const text::QueryVector& current_query,
    const graph::TransferRates& current_rates, const core::BaseSet& base,
    const std::vector<double>& scores,
    std::span<const graph::NodeId> feedback_objects,
    const ReformulationOptions& options) const {
  if (feedback_objects.empty()) {
    return InvalidArgumentError("no feedback objects given");
  }
  auto explanations = ExplainFeedback(current_rates, base, scores,
                                      feedback_objects, options);
  if (!explanations.ok()) return explanations.status();
  std::vector<const explain::Explanation*> views;
  views.reserve(explanations->size());
  for (const explain::Explanation& e : *explanations) views.push_back(&e);
  ReformulationResult result =
      Learn(current_query, current_rates, views, options);
  result.explanations = *std::move(explanations);
  return result;
}

StatusOr<std::vector<explain::Explanation>> Reformulator::ExplainFeedback(
    const graph::TransferRates& rates, const core::BaseSet& base,
    const std::vector<double>& scores,
    std::span<const graph::NodeId> feedback_objects,
    const ReformulationOptions& options) const {
  std::vector<explain::Explanation> explanations;
  explanations.reserve(feedback_objects.size());
  for (graph::NodeId v : feedback_objects) {
    auto explanation = explainer_.Explain(v, base, scores, rates,
                                          options.damping, options.explain);
    if (!explanation.ok()) {
      if (explanation.status().code() == StatusCode::kNotFound) continue;
      return explanation.status();
    }
    explanations.push_back(*std::move(explanation));
  }
  return explanations;
}

ReformulationResult Reformulator::Learn(
    const text::QueryVector& current_query,
    const graph::TransferRates& current_rates,
    std::span<const explain::Explanation* const> explanations,
    const ReformulationOptions& options) const {
  ReformulationResult result;
  result.query = current_query;
  result.rates = current_rates;
  if (explanations.empty()) {
    // No feedback object is reachable from the base set: nothing to learn.
    return result;
  }

  Timer reform_timer;
  std::vector<std::vector<std::pair<std::string, double>>> term_weights;
  std::vector<std::vector<double>> flow_vectors;
  term_weights.reserve(explanations.size());
  flow_vectors.reserve(explanations.size());
  const size_t num_slots = data_->schema().num_rate_slots();
  double total_iters = 0.0;
  for (const explain::Explanation* explanation : explanations) {
    result.explain_construction_seconds += explanation->construction_seconds;
    result.explain_adjustment_seconds += explanation->adjustment_seconds;
    total_iters += explanation->iterations;
    term_weights.push_back(ExpansionTermWeights(
        explanation->subgraph, *corpus_, options.damping, options.content));
    flow_vectors.push_back(EdgeTypeFlows(explanation->subgraph, num_slots));
  }
  result.avg_explain_iterations =
      total_iters / static_cast<double>(explanations.size());

  // Aggregate across feedback objects and reformulate.
  auto combined_terms = AggregateTermWeights(term_weights, options.aggregate);
  auto combined_flows = AggregateFlows(flow_vectors, options.aggregate);

  // Record the normalized top expansion terms for diagnostics.
  {
    auto sorted = combined_terms;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (sorted.size() > static_cast<size_t>(options.content.top_terms)) {
      sorted.resize(static_cast<size_t>(options.content.top_terms));
    }
    if (!sorted.empty() && sorted.front().second > 0.0) {
      const double inv = 1.0 / sorted.front().second;
      for (auto& [term, w] : sorted) w *= inv;
    }
    result.top_expansion_terms = std::move(sorted);
  }

  result.query = ReformulateContent(current_query, std::move(combined_terms),
                                    options.content);
  result.rates =
      ReformulateStructure(data_->schema(), current_rates,
                           std::move(combined_flows), options.structure);
  result.reformulation_seconds = reform_timer.ElapsedSeconds();
  return result;
}

}  // namespace orx::reform
