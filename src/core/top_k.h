#ifndef ORX_CORE_TOP_K_H_
#define ORX_CORE_TOP_K_H_

#include <optional>
#include <vector>

#include "graph/data_graph.h"

namespace orx::core {

/// One ranked result.
struct ScoredNode {
  graph::NodeId node = graph::kInvalidNodeId;
  double score = 0.0;

  friend bool operator==(const ScoredNode&, const ScoredNode&) = default;
};

/// Returns the k highest-scoring nodes in descending score order; ties
/// break by ascending node id (deterministic). O(n log k).
std::vector<ScoredNode> TopK(const std::vector<double>& scores, size_t k);

/// Like TopK but only considers nodes of `type` in `data` (the surveys
/// rank Paper objects; other node types are scaffolding). If `type` is
/// nullopt this is plain TopK.
std::vector<ScoredNode> TopKOfType(const std::vector<double>& scores,
                                   size_t k, const graph::DataGraph& data,
                                   std::optional<graph::TypeId> type);

/// Like TopKOfType but skips nodes for which `excluded[v]` is true; used
/// by the residual-collection evaluation (Section 6.1.1), which removes
/// already-seen relevant objects from the collection.
std::vector<ScoredNode> TopKOfTypeExcluding(
    const std::vector<double>& scores, size_t k, const graph::DataGraph& data,
    std::optional<graph::TypeId> type, const std::vector<bool>& excluded);

/// Top-k set certification: given one-sided approximate scores and their
/// L-inf bound, decides whether the approximate top-k *set* provably
/// equals the exact top-k set (the gap between the k-th kept score and
/// the best excluded score exceeds the bound).
struct CertifiedTopK {
  /// Top-k by approximate score (desc score, asc node id on ties).
  std::vector<ScoredNode> top;
  /// kept_min - excluded_max over approximate scores (+inf when fewer
  /// than k+1 candidates exist, so the set is trivially complete).
  double gap = 0.0;
  /// True iff gap > linf_bound, i.e. the set is provably exact.
  bool certified = false;
};

CertifiedTopK CertifyTopK(const std::vector<double>& scores,
                          double linf_bound, size_t k,
                          const graph::DataGraph& data,
                          std::optional<graph::TypeId> type);

}  // namespace orx::core

#endif  // ORX_CORE_TOP_K_H_
