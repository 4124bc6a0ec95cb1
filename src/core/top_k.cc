#include "core/top_k.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace orx::core {
namespace {

// Min-heap ordering: the worst element of the current top-k sits at the
// front. `a < b` means a ranks better than b.
bool RanksBetter(const ScoredNode& a, const ScoredNode& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

std::vector<ScoredNode> HeapTopK(const std::vector<double>& scores, size_t k,
                                 const auto& keep) {
  // The heap never holds more than min(k, |scores|) entries; reserving
  // k itself would let a caller's k (2^32 - 1 off the wire) allocate
  // gigabytes before a single score is read.
  std::vector<ScoredNode> heap;
  heap.reserve(std::min(k, scores.size()));
  auto heap_cmp = [](const ScoredNode& a, const ScoredNode& b) {
    return RanksBetter(a, b);  // makes the *worst* element the heap top
  };
  for (size_t i = 0; i < scores.size(); ++i) {
    const graph::NodeId v = static_cast<graph::NodeId>(i);
    if (!keep(v)) continue;
    ScoredNode cand{v, scores[i]};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    } else if (k > 0 && RanksBetter(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), heap_cmp);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  }
  std::sort(heap.begin(), heap.end(), RanksBetter);
  return heap;
}

}  // namespace

std::vector<ScoredNode> TopK(const std::vector<double>& scores, size_t k) {
  return HeapTopK(scores, k, [](graph::NodeId) { return true; });
}

std::vector<ScoredNode> TopKOfType(const std::vector<double>& scores,
                                   size_t k, const graph::DataGraph& data,
                                   std::optional<graph::TypeId> type) {
  if (!type.has_value()) return TopK(scores, k);
  return HeapTopK(scores, k, [&](graph::NodeId v) {
    return data.NodeType(v) == *type;
  });
}

std::vector<ScoredNode> TopKOfTypeExcluding(
    const std::vector<double>& scores, size_t k, const graph::DataGraph& data,
    std::optional<graph::TypeId> type, const std::vector<bool>& excluded) {
  return HeapTopK(scores, k, [&](graph::NodeId v) {
    if (v < excluded.size() && excluded[v]) return false;
    return !type.has_value() || data.NodeType(v) == *type;
  });
}

CertifiedTopK CertifyTopK(const std::vector<double>& scores,
                          double linf_bound, size_t k,
                          const graph::DataGraph& data,
                          std::optional<graph::TypeId> type) {
  CertifiedTopK out;
  if (k == 0) return out;
  // One extra candidate exposes the best excluded score.
  std::vector<ScoredNode> extended = TopKOfType(scores, k + 1, data, type);
  if (extended.size() <= k) {
    // Fewer than k+1 candidates of this type exist: the "top-k set" is
    // the full candidate set for exact and approximate scores alike.
    out.top = std::move(extended);
    out.gap = std::numeric_limits<double>::infinity();
    out.certified = std::isfinite(linf_bound);
    return out;
  }
  const double excluded = extended.back().score;
  extended.pop_back();
  out.gap = extended.back().score - excluded;
  // Strict inequality: at gap == bound the true scores can tie, and a
  // tie resolves by node id, about which the bound says nothing.
  out.certified = std::isfinite(linf_bound) && out.gap > linf_bound;
  out.top = std::move(extended);
  return out;
}

}  // namespace orx::core
