#include "core/searcher.h"

#include <cmath>

#include "common/timer.h"

namespace orx::core {
namespace {

// Rejects option combinations the engine would silently turn into
// nonsense: the engine layer stays permissive (tests drive it with
// degenerate epsilons on purpose), so the request boundary is here.
Status ValidateOptions(const SearchOptions& options) {
  if (options.k == 0) {
    return InvalidArgumentError("k must be >= 1");
  }
  const double d = options.objectrank.damping;
  if (!std::isfinite(d) || d < 0.0 || d >= 1.0) {
    return InvalidArgumentError(
        "damping must be finite and in [0, 1); got " + std::to_string(d));
  }
  const double eps = options.objectrank.epsilon;
  if (!(eps > 0.0)) {  // also catches NaN
    return InvalidArgumentError("epsilon must be > 0");
  }
  if (options.objectrank.max_iterations < 0) {
    return InvalidArgumentError("max_iterations must be >= 0");
  }
  if (options.tier != SearchTier::kAuto &&
      options.tier != SearchTier::kExact) {
    return InvalidArgumentError(
        "tier must be kAuto or kExact; kCached only reports an answer");
  }
  return Status::OK();
}

}  // namespace

Searcher::Searcher(const graph::DataGraph& data,
                   const graph::AuthorityGraph& graph,
                   const text::Corpus& corpus)
    : data_(&data), graph_(&graph), corpus_(&corpus), engine_(graph) {}

void Searcher::PrecomputeGlobalRank(const graph::TransferRates& rates,
                                    const ObjectRankOptions& options) {
  global_scores_ = engine_.ComputeGlobal(rates, options).scores;
  has_global_ = true;
}

void Searcher::ResetSession() {
  has_previous_ = false;
  previous_scores_.clear();
  has_global_ = false;
  global_scores_.clear();
}

StatusOr<SearchResult> Searcher::Search(const text::QueryVector& query,
                                        const graph::TransferRates& rates,
                                        const SearchOptions& options) {
  if (query.empty()) {
    return InvalidArgumentError("empty query vector");
  }
  ORX_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.mode == RankMode::kObjectRank2) {
    return SearchObjectRank2(query, rates, options);
  }
  return SearchBaseline(query, rates, options);
}

std::optional<SearchResult> Searcher::TryCacheAnswer(
    const text::QueryVector& query, const graph::TransferRates& rates,
    const SearchOptions& options, const BaseSet& base,
    CacheMissReason* reason) const {
  // The cache only speaks for this search when it is attached, fresh
  // (same rates AND same Okapi parameters — both are baked into the
  // cached vectors), and covers every query term.
  if (rank_cache_ == nullptr) {
    *reason = CacheMissReason::kNoCache;
    return std::nullopt;
  }
  if (rank_cache_->rates_fingerprint() != rates.Fingerprint()) {
    *reason = CacheMissReason::kRatesMismatch;
    return std::nullopt;
  }
  if (!rank_cache_->MatchesBm25(options.bm25)) {
    *reason = CacheMissReason::kBm25Mismatch;
    return std::nullopt;
  }
  Timer cache_timer;
  auto cached = rank_cache_->Query(query);
  if (!cached.ok() || !cached->missing_terms.empty()) {
    *reason = CacheMissReason::kMissingTerms;
    return std::nullopt;
  }
  SearchResult result;
  if (cached->error_bound > 0.0) {
    // Compressed entries answered: the combination is one-sided within
    // error_bound, so the hit only stands if the top-k set is provably
    // the exact one under that bound.
    CertifiedTopK certified = CertifyTopK(cached->scores, cached->error_bound,
                                          options.k, *data_,
                                          options.result_type);
    if (!certified.certified) {
      *reason = CacheMissReason::kErrorBudget;
      return std::nullopt;
    }
    result.top = std::move(certified.top);
  } else {
    result.top =
        TopKOfType(cached->scores, options.k, *data_, options.result_type);
  }
  result.converged = true;
  result.seconds = cache_timer.ElapsedSeconds();
  result.base_set_size = base.size();
  result.tier_used = SearchTier::kCached;
  result.error_bound = cached->error_bound;
  result.scores = std::move(cached->scores);
  *reason = CacheMissReason::kNone;
  return result;
}

StatusOr<SearchResult> Searcher::SearchObjectRank2(
    const text::QueryVector& query, const graph::TransferRates& rates,
    const SearchOptions& options) {
  auto base = BuildBaseSet(*corpus_, query, BaseSetMode::kIrWeighted,
                           options.bm25);
  if (!base.ok()) return base.status();

  CacheMissReason miss = CacheMissReason::kNone;
  if (options.tier == SearchTier::kAuto) {
    if (std::optional<SearchResult> hit =
            TryCacheAnswer(query, rates, options, *base, &miss)) {
      previous_scores_ = hit->scores;
      has_previous_ = true;
      return *std::move(hit);
    }
  }

  const std::vector<double>* seed = nullptr;
  if (options.use_warm_start) {
    // Reformulated queries are close to their predecessor, so the previous
    // fixpoint is a good starting point; the first query starts from the
    // global ObjectRank (Section 6.2).
    if (has_previous_) {
      seed = &previous_scores_;
    } else if (has_global_) {
      seed = &global_scores_;
    }
  }

  Timer timer;
  ObjectRankResult rank =
      engine_.Compute(*base, rates, options.objectrank, seed);
  if (rank.cancelled) {
    // Partial scores are discarded: they are not a valid ranking and must
    // not leak into the next query's warm start.
    return DeadlineExceededError("search cancelled after " +
                                 std::to_string(rank.iterations) +
                                 " iterations");
  }
  SearchResult result;
  result.seconds = timer.ElapsedSeconds();
  result.iterations = rank.iterations;
  result.converged = rank.converged;
  result.base_set_size = base->size();
  result.cache_miss_reason = miss;
  result.top = TopKOfType(rank.scores, options.k, *data_, options.result_type);
  result.scores = std::move(rank.scores);

  previous_scores_ = result.scores;
  has_previous_ = true;
  return result;
}

StatusOr<SearchResult> Searcher::SearchBaseline(
    const text::QueryVector& query, const graph::TransferRates& rates,
    const SearchOptions& options) {
  Timer timer;
  const size_t n = graph_->num_nodes();
  std::vector<double> combined(n, 1.0);
  int total_iterations = 0;
  bool all_converged = true;
  size_t matched_terms = 0;
  size_t base_total = 0;

  for (const std::string& term : query.terms()) {
    auto base = SingleTermBaseSet(*corpus_, term);
    if (!base.ok()) continue;  // keywords absent from the corpus contribute nothing
    ++matched_terms;
    base_total += base->size();

    ObjectRankResult rank = engine_.Compute(*base, rates, options.objectrank);
    if (rank.cancelled) {
      return DeadlineExceededError("search cancelled during per-keyword run");
    }
    total_iterations += rank.iterations;
    all_converged = all_converged && rank.converged;

    // Equation 16: r(v) = prod_t r_t(v)^g(t), g(t) = 1/log(|S(t)|). The
    // exponent damps popular keywords so they do not dominate the product.
    const double st = static_cast<double>(base->size());
    const double g = st > M_E ? 1.0 / std::log(st) : 1.0;
    for (size_t v = 0; v < n; ++v) {
      combined[v] *= std::pow(rank.scores[v], g);
    }
  }
  if (matched_terms == 0) {
    return NotFoundError("no query keyword matches any node");
  }

  SearchResult result;
  result.seconds = timer.ElapsedSeconds();
  result.iterations = total_iterations;
  result.converged = all_converged;
  result.base_set_size = base_total;
  result.top = TopKOfType(combined, options.k, *data_, options.result_type);
  result.scores = std::move(combined);

  // Baseline scores are products, not probabilities; they still serve as a
  // warm start only in baseline sessions, so do not overwrite the OR2 seed.
  return result;
}

}  // namespace orx::core
