#ifndef ORX_CORE_SEARCHER_H_
#define ORX_CORE_SEARCHER_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/base_set.h"
#include "core/objectrank.h"
#include "core/rank_cache.h"
#include "core/top_k.h"
#include "graph/authority_graph.h"
#include "graph/data_graph.h"
#include "text/corpus.h"
#include "text/query.h"

namespace orx::core {

/// Which execution tier answers a search: the paper's two ways, the
/// power iteration on the fly or the precomputed per-keyword vectors
/// (Section 6.2). A request names kAuto or kExact; kCached only reports
/// what answered. Every answer is sound: a compressed rank-cache hit
/// reports the certified error bound it carries, and the cache falls
/// back to the exact kernel when the top-k set cannot be certified
/// under it. The numeric values are the wire encoding (net/frame.h).
enum class SearchTier : uint8_t {
  /// Cache when fresh and certifiable, exact otherwise (the default).
  /// A miss is reported in SearchResult::cache_miss_reason.
  kAuto = 0,
  /// Always run the power iteration; the cache is not consulted.
  kExact = 1,
  /// Answered from the rank cache (SearchResult::tier_used only; a
  /// request naming it is kInvalidArgument).
  kCached = 2,
};

/// Why a search was not answered from the rank cache. Ordered from
/// structural (no cache at all) to marginal (cache answered, but its
/// compression error bound could not certify the top-k set).
enum class CacheMissReason : uint8_t {
  /// Not a miss: the cache answered, or the tier never consulted it.
  kNone = 0,
  /// No cache attached to the searcher.
  kNoCache = 1,
  /// The cache was built under different transfer rates.
  kRatesMismatch = 2,
  /// The cache was built under different Okapi BM25 parameters.
  kBm25Mismatch = 3,
  /// At least one query term is absent from the cache (or contributes no
  /// positive combination weight).
  kMissingTerms = 4,
  /// Compressed entries answered, but their combined error bound was too
  /// large to certify the top-k set.
  kErrorBudget = 5,
};

/// Which ranking semantics Search uses.
enum class RankMode {
  /// ObjectRank2 (Section 3): one power iteration over the IR-weighted
  /// base set of the whole query vector.
  kObjectRank2,
  /// The modified original ObjectRank used as the Table 2 baseline: one
  /// 0/1-base-set run per keyword, combined multiplicatively with the
  /// normalizing exponent g(t) = 1 / log(|S(t)|) (Equation 16).
  kObjectRankBaseline,
};

/// Per-search knobs.
struct SearchOptions {
  ObjectRankOptions objectrank;
  text::Bm25Params bm25;
  RankMode mode = RankMode::kObjectRank2;
  /// If set, only nodes of this type appear in the ranked result list
  /// (the surveys rank Paper / PubMed objects).
  std::optional<graph::TypeId> result_type;
  /// Number of results to return (the paper reports top-10).
  size_t k = 10;
  /// Seed the power iteration with the previous query's converged scores
  /// (Section 6.2: "Manipulating Initial ObjectRank values"). The first
  /// query of a session is seeded with the global ObjectRank if
  /// PrecomputeGlobalRank was called.
  bool use_warm_start = true;
  /// Execution tier, kAuto or kExact; see SearchTier. Only ObjectRank2
  /// mode dispatches on it — baseline mode always runs its per-keyword
  /// exact product.
  SearchTier tier = SearchTier::kAuto;
};

/// Outcome of one search.
struct SearchResult {
  /// Top-k results, best first.
  std::vector<ScoredNode> top;
  /// Full converged score vector r^Q (needed by the explainer).
  std::vector<double> scores;
  /// Power iterations executed (summed across per-keyword runs in
  /// baseline mode) — the quantity plotted in Figures 14(b)-17(b).
  int iterations = 0;
  bool converged = false;
  /// |S(Q)|.
  size_t base_set_size = 0;
  /// Wall-clock seconds of the ObjectRank execution stage.
  double seconds = 0.0;
  /// The tier that actually produced the scores (never kAuto): kCached
  /// for the precomputed rank cache (then `iterations` is 0), kExact for
  /// a power iteration.
  SearchTier tier_used = SearchTier::kExact;
  /// Certified additive error bound on `scores` (0 for exact results and
  /// dense cache hits). For every node v:
  /// scores[v] <= exact[v] <= scores[v] + error_bound. A compressed hit
  /// only stands when `top` provably equals the exact top-k set under
  /// this bound (CertifyTopK in core/top_k.h).
  double error_bound = 0.0;
  /// Why the rank cache did not answer (kNone on a hit, or when the tier
  /// never consulted it).
  CacheMissReason cache_miss_reason = CacheMissReason::kNone;
};

/// High-level query interface tying together the corpus, the authority
/// transfer data graph, and the ObjectRank engine. A Searcher represents
/// one user session: it remembers the last converged score vector and uses
/// it to warm-start the next (typically reformulated) query.
///
/// The referenced graph/corpus objects must outlive the Searcher.
class Searcher {
 public:
  Searcher(const graph::DataGraph& data, const graph::AuthorityGraph& graph,
           const text::Corpus& corpus);

  /// Computes the global ObjectRank under `rates` and stores it as the
  /// warm-start seed for the session's first query.
  void PrecomputeGlobalRank(const graph::TransferRates& rates,
                            const ObjectRankOptions& options = {});

  /// Attaches a precomputed rank cache. Subsequent ObjectRank2 searches
  /// are answered from the cache when (a) the query's terms are all
  /// cached and contribute positive combination weight, (b) the search's
  /// rates match the cache's fingerprint — i.e. until structure-based
  /// reformulation changes the rates — and (c) the search's BM25
  /// parameters equal the ones the cache was built with (they are baked
  /// into the cached vectors and masses). On any mismatch the searcher
  /// silently falls back to the power iteration. Pass nullptr to detach.
  /// The cache must outlive the searcher.
  void AttachRankCache(const RankCache* cache) { rank_cache_ = cache; }

  /// Shares a fused-weight cache (rate-resolved SpMV layouts; see
  /// graph/spmv_layout.h) with this searcher's engine. The serving layer
  /// passes the snapshot-owned cache so every request against a snapshot
  /// reuses one materialized layout instead of building its own.
  void AttachFusedCache(std::shared_ptr<graph::FusedWeightCache> cache) {
    engine_.set_fused_cache(std::move(cache));
  }

  /// Runs a search. Errors: kNotFound if no query keyword matches any
  /// node; kInvalidArgument on an empty query vector or on out-of-range
  /// options (k == 0, damping outside [0, 1) or non-finite, epsilon <= 0,
  /// negative max_iterations, a tier other than kAuto or kExact);
  /// kDeadlineExceeded when
  /// options.objectrank.cancel stopped the power iteration (the partial
  /// scores are discarded and the warm-start state is left untouched).
  StatusOr<SearchResult> Search(const text::QueryVector& query,
                                const graph::TransferRates& rates,
                                const SearchOptions& options = {});

  /// Forgets warm-start state (previous scores and global seed).
  void ResetSession();

  /// Last converged scores, or nullptr before the first search.
  const std::vector<double>* previous_scores() const {
    return has_previous_ ? &previous_scores_ : nullptr;
  }

  const graph::DataGraph& data() const { return *data_; }
  const graph::AuthorityGraph& authority_graph() const { return *graph_; }
  const text::Corpus& corpus() const { return *corpus_; }

 private:
  StatusOr<SearchResult> SearchObjectRank2(const text::QueryVector& query,
                                           const graph::TransferRates& rates,
                                           const SearchOptions& options);
  StatusOr<SearchResult> SearchBaseline(const text::QueryVector& query,
                                        const graph::TransferRates& rates,
                                        const SearchOptions& options);
  /// Tries to answer from the rank cache. Returns the result on a
  /// certified hit; otherwise sets *reason and returns nullopt.
  std::optional<SearchResult> TryCacheAnswer(const text::QueryVector& query,
                                             const graph::TransferRates& rates,
                                             const SearchOptions& options,
                                             const BaseSet& base,
                                             CacheMissReason* reason) const;

  const graph::DataGraph* data_;
  const graph::AuthorityGraph* graph_;
  const text::Corpus* corpus_;
  ObjectRankEngine engine_;

  const RankCache* rank_cache_ = nullptr;
  std::vector<double> global_scores_;
  bool has_global_ = false;
  std::vector<double> previous_scores_;
  bool has_previous_ = false;
};

}  // namespace orx::core

#endif  // ORX_CORE_SEARCHER_H_
