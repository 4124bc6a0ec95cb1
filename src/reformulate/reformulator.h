#ifndef ORX_REFORMULATE_REFORMULATOR_H_
#define ORX_REFORMULATE_REFORMULATOR_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/base_set.h"
#include "explain/explainer.h"
#include "graph/transfer_rates.h"
#include "reformulate/content_reformulator.h"
#include "reformulate/structure_reformulator.h"
#include "text/corpus.h"
#include "text/query.h"

namespace orx::reform {

/// Monotone aggregation function combining evidence from multiple feedback
/// objects (Section 5.3; the paper uses summation in its experiments).
enum class AggregateKind { kSum, kMin, kMax, kAvg };

/// All reformulation knobs. The three survey settings of Section 6.1.1:
///   content-only:        structure.adjustment = 0,   content.expansion = 0.2
///   content & structure: structure.adjustment = 0.5, content.expansion = 0.2
///   structure-only:      structure.adjustment = 0.5, content.expansion = 0
struct ReformulationOptions {
  ContentOptions content;
  StructureOptions structure;
  explain::ExplainOptions explain;
  /// Damping factor d of the query whose results are being fed back
  /// (enters Equation 5 flows and the target term weight of Equation 11).
  double damping = 0.85;
  AggregateKind aggregate = AggregateKind::kSum;
};

/// Outcome of one reformulation round.
struct ReformulationResult {
  /// The reformulated query vector Q_{i+1} (Equation 12).
  text::QueryVector query;
  /// The reformulated authority transfer rates (Equation 13).
  graph::TransferRates rates;

  /// The expansion terms that were added/boosted, best first (after
  /// normalization, before C_e scaling); diagnostics for the examples.
  std::vector<std::pair<std::string, double>> top_expansion_terms;

  /// Explaining subgraphs of the feedback objects, in input order.
  std::vector<explain::Explanation> explanations;

  /// Stage timings summed over feedback objects (Figures 14-17 stages
  /// "Explaining Subgraph Creation", "Explaining ObjectRank2 Execution",
  /// "Query Reformulation").
  double explain_construction_seconds = 0.0;
  double explain_adjustment_seconds = 0.0;
  double reformulation_seconds = 0.0;

  /// Mean explaining-fixpoint iterations per feedback object (Table 3).
  double avg_explain_iterations = 0.0;
};

/// Turns user relevance feedback into a reformulated query in two stages:
/// ExplainFeedback computes the explaining subgraph of every feedback
/// object, and Learn applies the content- and structure-based
/// reformulations of Section 5 to those subgraphs (either can be disabled
/// through its factor). Reformulate runs both; a caller that already
/// holds the explanations (the server's explain memo) calls Learn alone.
class Reformulator {
 public:
  Reformulator(const graph::DataGraph& data,
               const graph::AuthorityGraph& graph, const text::Corpus& corpus)
      : data_(&data), graph_(&graph), corpus_(&corpus),
        explainer_(data, graph) {}

  /// Reformulates `current_query`/`current_rates` given the feedback
  /// objects the user marked relevant. `base` and `scores` must come from
  /// the search being refined (they define the explaining flows).
  ///
  /// Feedback objects that no authority reaches (explainer returns
  /// kNotFound) are skipped; if every object is skipped the inputs are
  /// returned unchanged (with empty explanations) — feedback that cannot
  /// be explained cannot reshape the query.
  StatusOr<ReformulationResult> Reformulate(
      const text::QueryVector& current_query,
      const graph::TransferRates& current_rates, const core::BaseSet& base,
      const std::vector<double>& scores,
      std::span<const graph::NodeId> feedback_objects,
      const ReformulationOptions& options = {}) const;

  /// Stage 1 of Reformulate: the explanations of the feedback objects, in
  /// input order, built with `options.explain` and `options.damping` (a
  /// user "vote" for object v is a vote for its explaining subgraph,
  /// Section 5). Objects the explainer answers with kNotFound are
  /// skipped; any other explainer error is returned.
  StatusOr<std::vector<explain::Explanation>> ExplainFeedback(
      const graph::TransferRates& rates, const core::BaseSet& base,
      const std::vector<double>& scores,
      std::span<const graph::NodeId> feedback_objects,
      const ReformulationOptions& options = {}) const;

  /// Stage 2 of Reformulate: aggregates the explanations' expansion terms
  /// and edge-type flows and reformulates `current_query`/`current_rates`
  /// (Equations 11-15). With no explanations the inputs come back
  /// unchanged. The explanations must have been built with
  /// `options.damping` over the search being refined. The result's
  /// `explanations` stays empty; its explain timings and iterations sum
  /// the explanations' own.
  ReformulationResult Learn(
      const text::QueryVector& current_query,
      const graph::TransferRates& current_rates,
      std::span<const explain::Explanation* const> explanations,
      const ReformulationOptions& options = {}) const;

 private:
  const graph::DataGraph* data_;
  const graph::AuthorityGraph* graph_;
  const text::Corpus* corpus_;
  explain::Explainer explainer_;
};

}  // namespace orx::reform

#endif  // ORX_REFORMULATE_REFORMULATOR_H_
