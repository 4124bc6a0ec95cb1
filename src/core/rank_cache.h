#ifndef ORX_CORE_RANK_CACHE_H_
#define ORX_CORE_RANK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/array_ref.h"
#include "common/status.h"
#include "core/objectrank.h"
#include "graph/authority_graph.h"
#include "graph/transfer_rates.h"
#include "text/bm25.h"
#include "text/corpus.h"
#include "text/query.h"

namespace orx::core {

/// Precomputed per-keyword ObjectRank2 vectors, the query-time strategy of
/// the original ObjectRank system that Section 6.2 recommends for the
/// collections too large for on-the-fly execution ("precompute ObjectRank2
/// values as in [BHP04]").
///
/// The fixpoint of Equation 4 is linear in the base-set vector:
/// r(s) = (1-d) (I - dA)^{-1} s. The IR-weighted base set of a query
/// decomposes over its terms, so the exact query scores are a convex
/// combination of per-term rank vectors:
///
///   r^Q = sum_t c_t * r_t,
///   c_t = qf(w_t) * Z_t / sum_t' qf(w_t') * Z_t',
///
/// where r_t is the ObjectRank2 vector of term t's IR-weighted base set,
/// Z_t its unnormalized IR mass, and qf the query-side BM25 factor. A
/// cached query is therefore *exact* up to the per-term solver tolerance,
/// for arbitrary query-vector weights — including content-reformulated
/// queries. Structure-based reformulation changes the rates and
/// invalidates the cache (rates are baked into the precomputed vectors);
/// this is why precomputation alone cannot serve the full reformulation
/// loop, and the paper instead evaluates on focused subsets.
class RankCache {
 public:
  struct Options {
    ObjectRankOptions objectrank;
    text::Bm25Params bm25;
    /// Only terms with document frequency >= min_df are cached (rare
    /// terms are cheap to rank on the fly).
    uint32_t min_df = 1;
    /// Cache at most this many terms, most frequent first.
    size_t max_terms = static_cast<size_t>(-1);
    /// Worker threads for the offline build. Per-term rank vectors are
    /// independent, so the build solves them in blocks of up to 8 terms,
    /// one ObjectRankEngine::ComputeBatch call per block and one block
    /// per pool task; entries are merged in term order, making the result
    /// (and its ORXC2 container) byte-identical to the sequential build
    /// and to per-term Compute calls. 0 means one thread per hardware
    /// core.
    int build_threads = 1;
  };

  /// Per-stage counters/timers of one Build/BuildForTerms run. All times
  /// are wall-clock; per-term percentiles are over built terms only. A
  /// pool task solves a block of up to 8 terms in one block power
  /// iteration, so each term is charged its block's wall time divided by
  /// the block's lane count (the terms of the block that have postings).
  struct BuildStats {
    /// Terms requested, including duplicates and unknown terms.
    size_t terms_requested = 0;
    /// Terms with a cached vector at the end of the build.
    size_t terms_built = 0;
    /// Requested terms skipped: duplicates, already cached, or absent
    /// from the corpus.
    size_t terms_skipped = 0;
    /// Power iterations summed across built terms.
    long long total_iterations = 0;
    /// Built terms whose power iteration hit max_iterations.
    size_t terms_not_converged = 0;
    /// Worker threads the build actually used.
    int threads = 1;
    /// End-to-end build time, including scoring and the merge.
    double wall_seconds = 0.0;
    /// Median / 95th-percentile per-term time: the term's share of its
    /// block's scoring and block power iteration.
    double term_seconds_p50 = 0.0;
    double term_seconds_p95 = 0.0;

    /// One-line human-readable rendering for benchmarks and the CLI.
    std::string ToString() const;
  };

  /// Result of a cached query.
  struct QueryResult {
    std::vector<double> scores;
    /// Query terms the combination could not cover: terms with no cached
    /// vector, and cached terms whose combination coefficient is not
    /// positive (e.g. zero or negative query weight — the cache cannot
    /// reproduce the exact scores for those). The combination covers only
    /// the remaining terms; callers typically fall back to the Searcher
    /// when this is non-empty.
    std::vector<std::string> missing_terms;
    /// Certified one-sided additive error bound versus the all-dense
    /// combination: for every node v,
    ///   scores[v] <= dense[v] <= scores[v] + error_bound.
    /// 0 when every contributing term is dense. Callers gate acceptance
    /// on top-k certification against this bound (core/top_k.h).
    double error_bound = 0.0;
    /// Contributing terms served from a compressed entry.
    size_t compressed_terms = 0;
  };

  /// Precomputes the rank vector of every eligible corpus term under
  /// `rates`. O(#terms * power-iteration) — an offline index build,
  /// parallel over terms when options.build_threads != 1. If `stats` is
  /// non-null it receives the build's counters and timings.
  static RankCache Build(const graph::AuthorityGraph& graph,
                         const text::Corpus& corpus,
                         const graph::TransferRates& rates,
                         const Options& options,
                         BuildStats* stats = nullptr);

  /// Wraps precomputed per-term vectors zero-copy (the ORXC2 mmap path):
  /// term t's string is term_heap[term_offsets[t], term_offsets[t+1]),
  /// its mass masses[t], and its scores the float subspan
  /// scores[t * num_nodes, (t+1) * num_nodes). The term strings and hash
  /// map are rebuilt owned (small); the score matrix — the dominant
  /// payload — stays file-backed. Checks shapes and heap coverage; the
  /// per-score finiteness check is ValidateInvariants(), which deep
  /// validation runs in full.
  static StatusOr<RankCache> FromParts(
      size_t num_nodes, uint64_t rates_fingerprint,
      const text::Bm25Params& bm25, std::span<const char> term_heap,
      std::span<const uint64_t> term_offsets, std::span<const double> masses,
      std::span<const float> scores, std::shared_ptr<const void> keepalive);

  /// Knobs of Compress(); see docs/rank_cache.md. The representation is
  /// one-sided by construction (truncation drops mass, quantization
  /// floors), so a compressed combination never *over*-estimates a dense
  /// score — the property top-k certification needs.
  struct CompressionOptions {
    /// Exact float head entries kept per term (score-descending).
    size_t head = 64;
    /// Scores below this threshold (and outside the head) are dropped;
    /// the largest dropped score is remembered as the term's drop bound.
    double drop_threshold = 1e-5;
    /// A term stays dense unless its compressed form is at least this
    /// many times smaller — compression must buy memory, not just cost
    /// accuracy.
    double min_ratio = 2.0;
  };

  /// Aggregate outcome of one Compress() run.
  struct CompressionStats {
    size_t terms_compressed = 0;
    /// Terms left dense (failed min_ratio, or already compressed).
    size_t terms_dense = 0;
    /// Entry payload bytes before and after (score vectors only).
    size_t bytes_before = 0;
    size_t bytes_after = 0;
    /// Largest per-term additive error bound introduced.
    double max_epsilon = 0.0;

    std::string ToString() const;
  };

  /// Rewrites every dense entry as a truncated top-k head (exact floats,
  /// score-descending) plus a 16-bit floor-quantized tail, dropping
  /// scores below options.drop_threshold with their maximum and total
  /// mass remembered for error accounting. Entries whose compressed form
  /// is not at least options.min_ratio times smaller stay dense, so
  /// Query() stays exact for them. Idempotent.
  CompressionStats Compress(const CompressionOptions& options);
  CompressionStats Compress() { return Compress(CompressionOptions{}); }

  /// Number of entries held in compressed form.
  size_t num_compressed_terms() const;

  /// Fixed-size descriptor of one compressed entry inside the packed
  /// arrays (the ORXC2 "rc_cdesc" section payload).
  struct PackedCompressedDesc {
    uint64_t head_offset = 0;
    uint64_t tail_offset = 0;
    uint32_t head_count = 0;
    uint32_t tail_count = 0;
    double tail_scale = 0.0;
    double drop_bound = 0.0;
    double dropped_mass = 0.0;
  };
  static_assert(sizeof(PackedCompressedDesc) == 48);

  /// The entry table flattened for the ORXC2 container writer, in sorted
  /// term order. `scores` concatenates only the *dense* entries, in term
  /// order among them; compressed entries land in the side arrays,
  /// indexed by one desc per kinds[t] == 1 term (also in term order).
  struct PackedEntries {
    std::vector<uint64_t> offsets;
    std::string heap;
    std::vector<double> masses;
    std::vector<float> scores;
    /// Per term: 0 = dense, 1 = compressed. All-dense caches leave this
    /// empty (the ORXC2 v1 layout).
    std::vector<uint8_t> kinds;
    std::vector<PackedCompressedDesc> descs;
    std::vector<uint32_t> head_nodes;
    std::vector<float> head_scores;
    std::vector<uint32_t> tail_nodes;
    std::vector<uint16_t> tail_quants;
  };
  /// Returns kInternal, naming the term, if a dense entry's score vector
  /// length disagrees with num_nodes(): the attach path slices the
  /// concatenated scores at fixed num_nodes() strides, so such an entry
  /// would shift every later term's scores (or fail the attach).
  StatusOr<PackedEntries> PackEntries() const;

  /// The compressed side arrays of FromParts, all empty for an all-dense
  /// (v1) container. When `kinds` is non-empty it has one byte per term
  /// and `scores` covers only the dense terms.
  struct CompressedParts {
    std::span<const uint8_t> kinds;
    std::span<const PackedCompressedDesc> descs;
    std::span<const uint32_t> head_nodes;
    std::span<const float> head_scores;
    std::span<const uint32_t> tail_nodes;
    std::span<const uint16_t> tail_quants;
  };

  /// FromParts for containers carrying compressed entries. Shallow
  /// checks cover shapes, desc ranges, and node-id bounds (Query on an
  /// accepted cache must never index out of range); value-level checks
  /// (finiteness, monotone heads, ordered tails) are ValidateInvariants.
  static StatusOr<RankCache> FromParts(
      size_t num_nodes, uint64_t rates_fingerprint,
      const text::Bm25Params& bm25, std::span<const char> term_heap,
      std::span<const uint64_t> term_offsets, std::span<const double> masses,
      std::span<const float> scores, const CompressedParts& compressed,
      std::shared_ptr<const void> keepalive);

  /// Like Build but only for the given terms (normalized forms).
  static RankCache BuildForTerms(const graph::AuthorityGraph& graph,
                                 const text::Corpus& corpus,
                                 const graph::TransferRates& rates,
                                 const std::vector<std::string>& terms,
                                 const Options& options,
                                 BuildStats* stats = nullptr);

  /// Knobs of IncrementalBuild on top of the regular build options.
  struct IncrementalOptions {
    Options options;
    /// When more than this fraction of the graph's nodes is dirty the
    /// selective path degenerates (almost every term's base set touches
    /// the region and the bookkeeping costs more than it saves), so
    /// IncrementalBuild runs a cold BuildForTerms instead.
    double full_rebuild_threshold = 0.5;
  };

  /// Counters of one IncrementalBuild run.
  struct IncrementalStats {
    /// Build counters for the terms actually recomputed (refreshed or,
    /// on the fallback path, all of them).
    BuildStats build;
    /// Previous entries carried over unchanged.
    size_t terms_reused = 0;
    /// Terms recomputed, warm-started from the previous vector when one
    /// existed.
    size_t terms_refreshed = 0;
    /// True iff the cold-rebuild fallback ran (incompatible previous
    /// cache or dirty fraction past the threshold).
    bool full_rebuild = false;
  };

  /// Rebuilds the cache for `terms` after a graph mutation, reusing
  /// `previous` where the mutation provably cannot have moved a term's
  /// fixpoint. `dirty_nodes` flags (per node of the *new* graph) every
  /// node whose in-edges, out-degree, or text changed, expanded by one
  /// authority-transfer hop; `stats_changed` says the corpus-wide BM25
  /// statistics (N, avdl, df) moved, which perturbs every base set.
  ///
  /// A term is *clean* — its previous entry is reused verbatim — iff the
  /// stats did not change, it is cached in `previous`, and no flagged
  /// node has a strictly positive cached score: authority flow only
  /// crosses a changed edge when the source scores positive, and a
  /// base-set member always scores at least (1-d) times its base weight,
  /// so zero everywhere on the region means no flow in or out of it and
  /// the old vector still satisfies the new fixpoint equations. Every
  /// other term is recomputed, warm-started from its previous vector
  /// (padded with zeros for newly added nodes) per Section 6.2.
  ///
  /// Falls back to a cold BuildForTerms when `previous` is incompatible
  /// (different rates fingerprint or BM25 parameters) or the dirty-node
  /// fraction exceeds options.full_rebuild_threshold.
  static RankCache IncrementalBuild(const RankCache& previous,
                                    const graph::AuthorityGraph& graph,
                                    const text::Corpus& corpus,
                                    const graph::TransferRates& rates,
                                    const std::vector<std::string>& terms,
                                    std::span<const uint8_t> dirty_nodes,
                                    bool stats_changed,
                                    const IncrementalOptions& options,
                                    IncrementalStats* stats = nullptr);

  /// True if `term` (normalized) has a cached vector.
  bool Contains(const std::string& term) const {
    return entries_.count(term) > 0;
  }

  /// Every cached term, sorted (the ORXC2 container order).
  std::vector<std::string> Terms() const;

  /// True iff `term` is cached and some node flagged in `dirty` (indexed
  /// by NodeId, value != 0 = dirty) has a strictly positive cached score
  /// — i.e. the term's authority flow reaches the dirty region and its
  /// entry cannot be reused after a mutation there. False for uncached
  /// terms (they have no entry to reuse in the first place).
  bool TermTouchesRegion(const std::string& term,
                         std::span<const uint8_t> dirty) const;

  /// Combines the cached per-term vectors for `query`. Errors:
  /// kInvalidArgument on an empty query, kNotFound if no query term
  /// contributes (none is cached, or every cached term's combination
  /// coefficient is non-positive).
  StatusOr<QueryResult> Query(const text::QueryVector& query) const;

  size_t num_terms() const { return entries_.size(); }
  size_t num_nodes() const { return num_nodes_; }

  /// Fingerprint of the TransferRates this cache was built with; a cache
  /// only answers exactly for those rates. Searcher uses this to fall
  /// back to the power iteration after structure-based reformulation.
  uint64_t rates_fingerprint() const { return rates_fingerprint_; }

  /// The Okapi parameters baked into the cached vectors and masses. A
  /// cache combines exactly only for these parameters; Searcher compares
  /// them against the search's BM25 options before serving a hit.
  const text::Bm25Params& bm25_params() const { return bm25_; }

  /// True iff the cache was built with exactly these Okapi parameters
  /// (the freshness check alongside rates_fingerprint()).
  bool MatchesBm25(const text::Bm25Params& params) const {
    return bm25_.k1 == params.k1 && bm25_.b == params.b &&
           bm25_.k3 == params.k3;
  }

  /// Approximate in-memory footprint (the vectors dominate).
  size_t MemoryFootprintBytes() const;

  /// Deep structural check: every entry has a non-empty term, a finite
  /// non-negative mass, and — dense — exactly num_nodes() finite
  /// non-negative scores, or — compressed — a score-descending finite
  /// head, a strictly node-ascending nonzero-quant tail disjoint from the
  /// head, node ids in range, a finite non-negative quantization scale
  /// (positive when the tail is non-empty), and finite non-negative
  /// drop bound / dropped mass. Returns a descriptive non-OK Status on
  /// the first violation — Query() on a cache that fails this check would
  /// read or combine garbage. Deep ORXC2 attach runs it, so
  /// `orx_cli validate` and container_fuzz see it on every cache they
  /// accept.
  Status ValidateInvariants() const;

 private:
  struct Entry {
    /// Unnormalized IR mass Z_t of the term's base set.
    double mass = 0.0;
    /// r_t, stored as float (half the memory; combination runs in
    /// double). Owned by builds; a borrowed slice of the mmap-backed
    /// score matrix on the FromParts path. Empty when the entry is
    /// compressed.
    ArrayRef<float> scores;

    /// Compressed representation (docs/rank_cache.md): the top `head`
    /// scores exact, the next tier floor-quantized to 16 bits, the rest
    /// dropped with their max and sum retained. Every stored value is
    /// <= the dense value it stands for, and every unstored value is
    /// <= drop_bound, so per node
    ///   stored(v) <= dense(v) <= stored(v) + max(drop_bound, tail_scale).
    bool compressed = false;
    ArrayRef<uint32_t> head_nodes;   // score-descending, then id-ascending
    ArrayRef<float> head_scores;
    ArrayRef<uint32_t> tail_nodes;   // strictly ascending node ids
    ArrayRef<uint16_t> tail_quants;  // value = quant * tail_scale
    double tail_scale = 0.0;
    double drop_bound = 0.0;
    double dropped_mass = 0.0;

    /// The entry's certified additive per-node error bound.
    double epsilon() const {
      return compressed ? (drop_bound > tail_scale ? drop_bound : tail_scale)
                        : 0.0;
    }
  };

  /// Byte size of one entry's score payload.
  static size_t EntryPayloadBytes(const Entry& entry);
  /// Dense float materialization of an entry (dropped scores become 0);
  /// the warm-start seed for incremental refreshes of compressed entries.
  std::vector<float> DenseScores(const Entry& entry) const;

  RankCache() = default;

  /// The build behind BuildForTerms and IncrementalBuild (options
  /// already sanitized). Dedupes `terms` (first appearance wins), copies
  /// the entries of the terms `reuse` claims from `previous` verbatim,
  /// and solves the rest in blocks of up to 8 terms per
  /// ObjectRankEngine::ComputeBatch call, one block per pool task, each
  /// term warm-started from its `previous` entry when there is one. An
  /// empty `reuse` claims no term; a null `previous` warm-starts none.
  /// Fills `stats`, and `reused` with the count of copied entries.
  static RankCache BuildTerms(
      const graph::AuthorityGraph& graph, const text::Corpus& corpus,
      const graph::TransferRates& rates,
      const std::vector<std::string>& terms, const Options& options,
      const RankCache* previous,
      const std::function<bool(const std::string&)>& reuse,
      BuildStats& stats, size_t& reused);

  /// Test-only backdoor (tests/rank_cache_test.cc) for forging invalid
  /// internal states that the public API cannot produce.
  friend struct RankCacheTestPeer;

  size_t num_nodes_ = 0;
  uint64_t rates_fingerprint_ = 0;
  text::Bm25Params bm25_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace orx::core

#endif  // ORX_CORE_RANK_CACHE_H_
