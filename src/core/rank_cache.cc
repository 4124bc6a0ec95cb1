#include "core/rank_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/base_set.h"

namespace orx::core {
namespace {

RankCache::Options SanitizeOptions(RankCache::Options options) {
  if (options.min_df == 0) options.min_df = 1;
  if (options.build_threads <= 0) {
    options.build_threads = static_cast<int>(ThreadPool::HardwareThreads());
  }
  return options;
}

// Terms per ObjectRankEngine::ComputeBatch call in a build: one block
// power iteration streams the graph once for up to this many terms.
constexpr size_t kBlockLanes = 8;

// Outcome of ranking one term: the cache entry plus the per-term
// counters the BuildStats aggregation needs.
struct TermBuildResult {
  bool built = false;
  double mass = 0.0;
  std::vector<float> scores;
  int iterations = 0;
  bool converged = true;
  double seconds = 0.0;
};

// The term's IR-weighted base set (idf * tf-factor per posting,
// normalized) and its unnormalized mass; empty when the term has no
// postings.
BaseSet TermBaseSet(const text::Corpus& corpus, const std::string& term,
                    const text::Bm25Params& bm25, double* mass) {
  // A single-term query vector with weight 1 has query factor 1, so
  // ScoreBaseSet yields idf * tf-factor per matching document.
  text::QueryVector unit;
  unit.SetWeight(term, 1.0);
  auto scored = text::ScoreBaseSet(corpus, unit, bm25);
  BaseSet base;
  if (scored.empty()) return base;
  *mass = 0.0;
  for (const auto& [doc, score] : scored) *mass += score;
  base.entries.reserve(scored.size());
  if (*mass > 0.0) {
    for (const auto& [doc, score] : scored) {
      base.entries.emplace_back(doc, score / *mass);
    }
  } else {
    // Degenerate all-zero IR scores: uniform, mass = |postings| so the
    // combination still weights the term by its spread.
    *mass = static_cast<double>(scored.size());
    const double w = 1.0 / static_cast<double>(scored.size());
    for (const auto& [doc, score] : scored) {
      base.entries.emplace_back(doc, w);
    }
  }
  return base;
}

// Percentile over an ascending-sorted sample (nearest-rank); 0 if empty.
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(p * static_cast<double>(
                                              sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

std::string RankCache::BuildStats::ToString() const {
  std::string out;
  out += "built " + std::to_string(terms_built) + "/" +
         std::to_string(terms_requested) + " terms (" +
         std::to_string(terms_skipped) + " skipped) in " +
         FormatDouble(wall_seconds, 2) + "s on " + std::to_string(threads) +
         (threads == 1 ? " thread" : " threads") + "; " +
         std::to_string(total_iterations) + " power iterations";
  if (terms_not_converged > 0) {
    out += " (" + std::to_string(terms_not_converged) + " not converged)";
  }
  out += ", per-term p50 " + FormatDouble(term_seconds_p50 * 1e3, 1) +
         "ms / p95 " + FormatDouble(term_seconds_p95 * 1e3, 1) + "ms";
  return out;
}

RankCache RankCache::Build(const graph::AuthorityGraph& graph,
                           const text::Corpus& corpus,
                           const graph::TransferRates& rates,
                           const Options& options, BuildStats* stats) {
  // Eligible terms, most frequent first, capped at max_terms.
  std::vector<text::TermId> terms;
  for (text::TermId t = 0; t < corpus.vocab_size(); ++t) {
    if (corpus.Df(t) >= std::max<uint32_t>(1, options.min_df)) {
      terms.push_back(t);
    }
  }
  std::sort(terms.begin(), terms.end(), [&](text::TermId a, text::TermId b) {
    if (corpus.Df(a) != corpus.Df(b)) return corpus.Df(a) > corpus.Df(b);
    return a < b;
  });
  if (terms.size() > options.max_terms) terms.resize(options.max_terms);

  std::vector<std::string> term_strings;
  term_strings.reserve(terms.size());
  for (text::TermId t : terms) term_strings.push_back(corpus.TermString(t));
  return BuildForTerms(graph, corpus, rates, term_strings, options, stats);
}

RankCache RankCache::BuildForTerms(const graph::AuthorityGraph& graph,
                                   const text::Corpus& corpus,
                                   const graph::TransferRates& rates,
                                   const std::vector<std::string>& terms,
                                   const Options& options,
                                   BuildStats* stats) {
  BuildStats local;
  size_t reused = 0;
  return BuildTerms(graph, corpus, rates, terms, SanitizeOptions(options),
                    /*previous=*/nullptr, /*reuse=*/nullptr,
                    stats != nullptr ? *stats : local, reused);
}

RankCache RankCache::BuildTerms(
    const graph::AuthorityGraph& graph, const text::Corpus& corpus,
    const graph::TransferRates& rates, const std::vector<std::string>& terms,
    const Options& options, const RankCache* previous,
    const std::function<bool(const std::string&)>& reuse, BuildStats& stats,
    size_t& reused) {
  Timer wall_timer;
  RankCache cache;
  cache.num_nodes_ = graph.num_nodes();
  cache.rates_fingerprint_ = rates.Fingerprint();
  cache.bm25_ = options.bm25;

  // Unique terms in first-appearance order, and the ones to solve. Every
  // block writes only its own terms' slots of `results`, and the merge
  // below walks the slots in this fixed order, so the cache (and its
  // ORXC2 container) is the same for every thread count.
  std::vector<std::string> unique;
  std::vector<uint8_t> reuse_term;
  std::vector<size_t> work;
  {
    std::unordered_set<std::string> seen;
    for (const std::string& term : terms) {
      if (!seen.insert(term).second) continue;
      const bool keep = reuse != nullptr && reuse(term);
      if (!keep) work.push_back(unique.size());
      unique.push_back(term);
      reuse_term.push_back(keep ? 1 : 0);
    }
  }

  // Blocks of `lanes` consecutive work terms (the last one may be
  // short): the widest power of two up to kBlockLanes that still gives
  // every worker two blocks, so no worker idles while another finishes
  // a last full-width block. Lane results are bit-identical to per-term
  // Compute calls (tests/batch_kernel_test.cc), so the blocking never
  // changes a vector.
  const size_t threads = std::min<size_t>(
      static_cast<size_t>(options.build_threads),
      std::max<size_t>(1, work.size()));
  size_t lanes = kBlockLanes;
  while (lanes > 1 && lanes * 2 * threads > work.size()) lanes /= 2;
  const size_t blocks = (work.size() + lanes - 1) / lanes;

  ObjectRankEngine engine(graph);
  std::vector<TermBuildResult> results(unique.size());
  const auto solve_block = [&](size_t b) {
    const size_t begin = b * lanes;
    const size_t end = std::min(work.size(), begin + lanes);
    Timer timer;
    std::vector<BaseSet> bases(end - begin);
    std::vector<std::vector<double>> warm(end - begin);
    std::vector<BatchQuery> queries;
    std::vector<size_t> slots;  // unique-term index of each query
    for (size_t w = begin; w < end; ++w) {
      const size_t i = work[w];
      BaseSet& base = bases[w - begin];
      base = TermBaseSet(corpus, unique[i], options.bm25, &results[i].mass);
      if (base.empty()) continue;
      BatchQuery query;
      query.base = &base;
      if (previous != nullptr) {
        if (auto it = previous->entries_.find(unique[i]);
            it != previous->entries_.end()) {
          // Warm start from the previous vector, padded with zeros for
          // newly added nodes. Compressed entries materialize densely
          // (dropped scores seed as 0 — still far closer to the new
          // fixpoint than the base set is).
          const std::vector<float> dense = previous->DenseScores(it->second);
          std::vector<double>& seed = warm[w - begin];
          seed.assign(dense.begin(), dense.end());
          seed.resize(graph.num_nodes(), 0.0);
          query.warm_start = &seed;
        }
      }
      queries.push_back(query);
      slots.push_back(i);
    }
    if (queries.empty()) return;
    std::vector<ObjectRankResult> ranks =
        engine.ComputeBatch(queries, rates, options.objectrank);
    // Lanes share every pass, so each is charged an equal share of the
    // block's wall time.
    const double seconds =
        timer.ElapsedSeconds() / static_cast<double>(slots.size());
    for (size_t l = 0; l < slots.size(); ++l) {
      TermBuildResult& r = results[slots[l]];
      r.built = true;
      r.scores.assign(ranks[l].scores.begin(), ranks[l].scores.end());
      r.iterations = ranks[l].iterations;
      r.converged = ranks[l].converged;
      r.seconds = seconds;
    }
  };
  if (threads <= 1) {
    for (size_t b = 0; b < blocks; ++b) solve_block(b);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(blocks, solve_block);
  }

  stats = BuildStats{};
  stats.terms_requested = terms.size();
  stats.threads = static_cast<int>(threads);
  reused = 0;
  std::vector<double> durations;
  durations.reserve(work.size());
  for (size_t i = 0; i < unique.size(); ++i) {
    if (reuse_term[i] != 0) {
      cache.entries_.emplace(unique[i], previous->entries_.at(unique[i]));
      ++reused;
      continue;
    }
    TermBuildResult& r = results[i];
    if (!r.built) continue;
    Entry entry;
    entry.mass = r.mass;
    entry.scores = std::move(r.scores);
    cache.entries_.emplace(unique[i], std::move(entry));
    ++stats.terms_built;
    stats.total_iterations += r.iterations;
    if (!r.converged) ++stats.terms_not_converged;
    durations.push_back(r.seconds);
  }
  stats.terms_skipped = stats.terms_requested - stats.terms_built - reused;
  std::sort(durations.begin(), durations.end());
  stats.term_seconds_p50 = SortedPercentile(durations, 0.50);
  stats.term_seconds_p95 = SortedPercentile(durations, 0.95);
  stats.wall_seconds = wall_timer.ElapsedSeconds();
  return cache;
}

StatusOr<RankCache> RankCache::FromParts(
    size_t num_nodes, uint64_t rates_fingerprint,
    const text::Bm25Params& bm25, std::span<const char> term_heap,
    std::span<const uint64_t> term_offsets, std::span<const double> masses,
    std::span<const float> scores, std::shared_ptr<const void> keepalive) {
  return FromParts(num_nodes, rates_fingerprint, bm25, term_heap,
                   term_offsets, masses, scores, CompressedParts{},
                   std::move(keepalive));
}

StatusOr<RankCache> RankCache::FromParts(
    size_t num_nodes, uint64_t rates_fingerprint,
    const text::Bm25Params& bm25, std::span<const char> term_heap,
    std::span<const uint64_t> term_offsets, std::span<const double> masses,
    std::span<const float> scores, const CompressedParts& compressed,
    std::shared_ptr<const void> keepalive) {
  if (term_offsets.empty() || term_offsets.size() - 1 != masses.size()) {
    return DataLossError("rank cache section shapes are inconsistent");
  }
  const size_t num_terms = masses.size();
  if (term_offsets.front() != 0 || term_offsets.back() != term_heap.size()) {
    return DataLossError("rank cache term offsets do not cover the heap");
  }
  const bool has_kinds = !compressed.kinds.empty();
  if (has_kinds && compressed.kinds.size() != num_terms) {
    return DataLossError("rank cache kinds section is not one per term");
  }
  size_t num_compressed = 0;
  for (const uint8_t kind : compressed.kinds) {
    if (kind > 1) {
      return DataLossError("unknown rank cache entry kind " +
                           std::to_string(kind));
    }
    num_compressed += kind;
  }
  if (compressed.descs.size() != num_compressed) {
    return DataLossError("rank cache compressed descriptor count mismatch");
  }
  const size_t num_dense = num_terms - num_compressed;
  if (scores.size() != num_dense * num_nodes) {
    return DataLossError("rank cache score matrix is not dense-terms x nodes");
  }
  // Node-id bounds are a *shallow* obligation: Query() scatters through
  // these arrays, so an accepted cache must never index out of range.
  for (const uint32_t v : compressed.head_nodes) {
    if (v >= num_nodes) {
      return DataLossError("compressed head node id out of range");
    }
  }
  for (const uint32_t v : compressed.tail_nodes) {
    if (v >= num_nodes) {
      return DataLossError("compressed tail node id out of range");
    }
  }
  if (compressed.head_scores.size() != compressed.head_nodes.size() ||
      compressed.tail_quants.size() != compressed.tail_nodes.size()) {
    return DataLossError("compressed node/value array lengths disagree");
  }
  RankCache cache;
  cache.num_nodes_ = num_nodes;
  cache.rates_fingerprint_ = rates_fingerprint;
  cache.bm25_ = bm25;
  cache.entries_.reserve(num_terms);
  size_t dense_index = 0;
  size_t desc_index = 0;
  for (size_t t = 0; t < num_terms; ++t) {
    // Checked per term before the term is read: the front/back check
    // above does not keep a middle offset inside the heap.
    if (term_offsets[t] > term_offsets[t + 1] ||
        term_offsets[t + 1] > term_heap.size()) {
      return DataLossError("rank cache term offsets are not monotonic "
                           "within the heap");
    }
    std::string term(term_heap.data() + term_offsets[t],
                     static_cast<size_t>(term_offsets[t + 1] -
                                         term_offsets[t]));
    if (term.empty()) {
      return DataLossError("empty rank cache term at index " +
                           std::to_string(t));
    }
    Entry entry;
    entry.mass = masses[t];
    if (!has_kinds || compressed.kinds[t] == 0) {
      entry.scores = ArrayRef<float>::Borrowed(
          scores.subspan(dense_index * num_nodes, num_nodes), keepalive);
      ++dense_index;
    } else {
      const PackedCompressedDesc& desc = compressed.descs[desc_index++];
      if (desc.head_offset > compressed.head_nodes.size() ||
          desc.head_count >
              compressed.head_nodes.size() - desc.head_offset ||
          desc.tail_offset > compressed.tail_nodes.size() ||
          desc.tail_count >
              compressed.tail_nodes.size() - desc.tail_offset) {
        return DataLossError("compressed descriptor range out of bounds");
      }
      entry.compressed = true;
      entry.head_nodes = ArrayRef<uint32_t>::Borrowed(
          compressed.head_nodes.subspan(desc.head_offset, desc.head_count),
          keepalive);
      entry.head_scores = ArrayRef<float>::Borrowed(
          compressed.head_scores.subspan(desc.head_offset, desc.head_count),
          keepalive);
      entry.tail_nodes = ArrayRef<uint32_t>::Borrowed(
          compressed.tail_nodes.subspan(desc.tail_offset, desc.tail_count),
          keepalive);
      entry.tail_quants = ArrayRef<uint16_t>::Borrowed(
          compressed.tail_quants.subspan(desc.tail_offset, desc.tail_count),
          keepalive);
      entry.tail_scale = desc.tail_scale;
      entry.drop_bound = desc.drop_bound;
      entry.dropped_mass = desc.dropped_mass;
    }
    if (!cache.entries_.emplace(std::move(term), std::move(entry)).second) {
      return DataLossError("duplicate rank cache term at index " +
                           std::to_string(t));
    }
  }
  return cache;
}

StatusOr<RankCache::PackedEntries> RankCache::PackEntries() const {
  PackedEntries out;
  const std::vector<std::string> terms = Terms();
  const bool any_compressed = num_compressed_terms() > 0;
  out.offsets.reserve(terms.size() + 1);
  out.offsets.push_back(0);
  out.masses.reserve(terms.size());
  if (any_compressed) out.kinds.reserve(terms.size());
  for (const std::string& term : terms) {
    const Entry& entry = entries_.at(term);
    if (!entry.compressed && entry.scores.size() != num_nodes_) {
      return InternalError(
          "rank cache entry '" + term + "' has " +
          std::to_string(entry.scores.size()) + " scores, expected " +
          std::to_string(num_nodes_));
    }
    out.heap += term;
    out.offsets.push_back(out.heap.size());
    out.masses.push_back(entry.mass);
    if (!entry.compressed) {
      if (any_compressed) out.kinds.push_back(0);
      out.scores.insert(out.scores.end(), entry.scores.begin(),
                        entry.scores.end());
      continue;
    }
    out.kinds.push_back(1);
    PackedCompressedDesc desc;
    desc.head_offset = out.head_nodes.size();
    desc.tail_offset = out.tail_nodes.size();
    desc.head_count = static_cast<uint32_t>(entry.head_nodes.size());
    desc.tail_count = static_cast<uint32_t>(entry.tail_nodes.size());
    desc.tail_scale = entry.tail_scale;
    desc.drop_bound = entry.drop_bound;
    desc.dropped_mass = entry.dropped_mass;
    out.descs.push_back(desc);
    out.head_nodes.insert(out.head_nodes.end(), entry.head_nodes.begin(),
                          entry.head_nodes.end());
    out.head_scores.insert(out.head_scores.end(), entry.head_scores.begin(),
                           entry.head_scores.end());
    out.tail_nodes.insert(out.tail_nodes.end(), entry.tail_nodes.begin(),
                          entry.tail_nodes.end());
    out.tail_quants.insert(out.tail_quants.end(), entry.tail_quants.begin(),
                           entry.tail_quants.end());
  }
  return out;
}

std::vector<std::string> RankCache::Terms() const {
  std::vector<std::string> terms;
  terms.reserve(entries_.size());
  for (const auto& [term, entry] : entries_) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  return terms;
}

bool RankCache::TermTouchesRegion(const std::string& term,
                                  std::span<const uint8_t> dirty) const {
  auto it = entries_.find(term);
  if (it == entries_.end()) return false;
  const Entry& entry = it->second;
  if (entry.compressed) {
    // Reuse-after-mutation is a proof, and a compressed entry with
    // dropped mass cannot prove a dirty node scored zero — the node may
    // sit in the drop tier with a small positive score. Be conservative:
    // any dirty node at all forces a refresh then; otherwise check the
    // stored nodes (quantized tail values are positive by construction).
    bool any_dirty = false;
    for (const uint8_t flag : dirty) {
      if (flag != 0) {
        any_dirty = true;
        break;
      }
    }
    if (!any_dirty) return false;
    if (entry.dropped_mass > 0.0 || entry.drop_bound > 0.0) return true;
    for (size_t i = 0; i < entry.head_nodes.size(); ++i) {
      const uint32_t v = entry.head_nodes[i];
      if (v < dirty.size() && dirty[v] != 0 && entry.head_scores[i] > 0.0f) {
        return true;
      }
    }
    for (const uint32_t v : entry.tail_nodes) {
      if (v < dirty.size() && dirty[v] != 0) return true;
    }
    return false;
  }
  const std::span<const float> scores = entry.scores;
  const size_t n = std::min(scores.size(), dirty.size());
  for (size_t v = 0; v < n; ++v) {
    if (dirty[v] != 0 && scores[v] > 0.0f) return true;
  }
  return false;
}

RankCache RankCache::IncrementalBuild(
    const RankCache& previous, const graph::AuthorityGraph& graph,
    const text::Corpus& corpus, const graph::TransferRates& rates,
    const std::vector<std::string>& terms,
    std::span<const uint8_t> dirty_nodes, bool stats_changed,
    const IncrementalOptions& incremental_options, IncrementalStats* stats) {
  const Options options = SanitizeOptions(incremental_options.options);
  Timer wall_timer;
  IncrementalStats local;
  IncrementalStats* out = stats != nullptr ? stats : &local;
  *out = IncrementalStats{};

  size_t num_dirty = 0;
  for (uint8_t flag : dirty_nodes) num_dirty += flag != 0 ? 1 : 0;
  const double dirty_fraction =
      graph.num_nodes() == 0
          ? 0.0
          : static_cast<double>(num_dirty) /
                static_cast<double>(graph.num_nodes());

  // The previous cache only speaks for this build's vector space when the
  // rates and Okapi parameters match; a node count that shrank cannot
  // happen under detach-style removal and means the caches are unrelated.
  const bool compatible = previous.rates_fingerprint_ == rates.Fingerprint() &&
                          previous.MatchesBm25(options.bm25) &&
                          previous.num_nodes_ <= graph.num_nodes();
  if (!compatible ||
      dirty_fraction > incremental_options.full_rebuild_threshold) {
    RankCache cold = BuildTerms(graph, corpus, rates, terms, options,
                                /*previous=*/nullptr, /*reuse=*/nullptr,
                                out->build, out->terms_reused);
    out->full_rebuild = true;
    out->terms_refreshed = cold.entries_.size();
    out->build.wall_seconds = wall_timer.ElapsedSeconds();
    return cold;
  }

  // A term is clean iff the corpus statistics held still, it is cached,
  // the node count did not change (new nodes carry new text, so equality
  // is implied by !stats_changed — kept as a guard), and its cached flow
  // never scores positive on the dirty region. Every other term is
  // recomputed, warm-started from its previous vector when it has one.
  const bool reusable =
      !stats_changed && previous.num_nodes_ == graph.num_nodes();
  const auto clean = [&](const std::string& term) {
    return reusable && previous.Contains(term) &&
           !previous.TermTouchesRegion(term, dirty_nodes);
  };
  RankCache cache = BuildTerms(graph, corpus, rates, terms, options,
                               &previous, clean, out->build,
                               out->terms_reused);
  out->terms_refreshed = out->build.terms_built;
  out->build.wall_seconds = wall_timer.ElapsedSeconds();
  return cache;
}

size_t RankCache::EntryPayloadBytes(const Entry& entry) {
  if (!entry.compressed) return entry.scores.size() * sizeof(float);
  return entry.head_nodes.size() * (sizeof(uint32_t) + sizeof(float)) +
         entry.tail_nodes.size() * (sizeof(uint32_t) + sizeof(uint16_t)) +
         3 * sizeof(double);
}

std::vector<float> RankCache::DenseScores(const Entry& entry) const {
  if (!entry.compressed) {
    return std::vector<float>(entry.scores.begin(), entry.scores.end());
  }
  std::vector<float> dense(num_nodes_, 0.0f);
  for (size_t i = 0; i < entry.head_nodes.size(); ++i) {
    dense[entry.head_nodes[i]] = entry.head_scores[i];
  }
  for (size_t i = 0; i < entry.tail_nodes.size(); ++i) {
    dense[entry.tail_nodes[i]] = static_cast<float>(
        static_cast<double>(entry.tail_quants[i]) * entry.tail_scale);
  }
  return dense;
}

std::string RankCache::CompressionStats::ToString() const {
  const double ratio =
      bytes_after == 0 ? 0.0 : static_cast<double>(bytes_before) /
                                   static_cast<double>(bytes_after);
  return "compressed " + std::to_string(terms_compressed) + " terms (" +
         std::to_string(terms_dense) + " dense), " +
         std::to_string(bytes_before) + " -> " + std::to_string(bytes_after) +
         " bytes (" + FormatDouble(ratio, 1) + "x), max epsilon " +
         FormatDouble(max_epsilon, 8);
}

RankCache::CompressionStats RankCache::Compress(
    const CompressionOptions& options) {
  CompressionStats stats;
  for (auto& [term, entry] : entries_) {
    stats.bytes_before += EntryPayloadBytes(entry);
    if (entry.compressed) {
      ++stats.terms_compressed;
      stats.max_epsilon = std::max(stats.max_epsilon, entry.epsilon());
      stats.bytes_after += EntryPayloadBytes(entry);
      continue;
    }
    const std::span<const float> dense = entry.scores;

    // Candidates kept out of the drop tier: the head (largest scores,
    // wherever they sit) plus every other node above the threshold.
    std::vector<uint32_t> order;
    order.reserve(dense.size() / 16);
    for (uint32_t v = 0; v < dense.size(); ++v) {
      if (dense[v] > 0.0f) order.push_back(v);
    }
    // Score-descending, id-ascending on ties: deterministic, and the
    // head comes out already in its stored order.
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (dense[a] != dense[b]) return dense[a] > dense[b];
      return a < b;
    });

    const size_t head_count = std::min(options.head, order.size());
    std::vector<uint32_t> tail;
    double drop_bound = 0.0;
    double dropped_mass = 0.0;
    double tail_max = 0.0;
    for (size_t i = head_count; i < order.size(); ++i) {
      const double s = static_cast<double>(dense[order[i]]);
      if (s >= options.drop_threshold) {
        tail.push_back(order[i]);
        tail_max = std::max(tail_max, s);
      } else {
        drop_bound = std::max(drop_bound, s);
        dropped_mass += s;
      }
    }
    const double tail_scale = tail_max / 65535.0;

    std::vector<uint32_t> tail_nodes;
    std::vector<uint16_t> tail_quants;
    tail_nodes.reserve(tail.size());
    tail_quants.reserve(tail.size());
    std::sort(tail.begin(), tail.end());
    for (const uint32_t v : tail) {
      const double s = static_cast<double>(dense[v]);
      // Floor quantization keeps the stored value <= the dense one; a
      // quant of 0 stores nothing, so the node moves to the drop tier
      // (its score is < tail_scale, already covered by the bound).
      const uint16_t q = static_cast<uint16_t>(std::min(
          65535.0, tail_scale > 0.0 ? std::floor(s / tail_scale) : 0.0));
      if (q == 0) {
        drop_bound = std::max(drop_bound, s);
        dropped_mass += s;
        continue;
      }
      tail_nodes.push_back(v);
      tail_quants.push_back(q);
    }

    const size_t compressed_bytes =
        head_count * (sizeof(uint32_t) + sizeof(float)) +
        tail_nodes.size() * (sizeof(uint32_t) + sizeof(uint16_t)) +
        3 * sizeof(double);
    const size_t dense_bytes = dense.size() * sizeof(float);
    if (static_cast<double>(compressed_bytes) * options.min_ratio >
        static_cast<double>(dense_bytes)) {
      ++stats.terms_dense;
      stats.bytes_after += dense_bytes;
      continue;
    }

    std::vector<uint32_t> head_nodes(order.begin(),
                                     order.begin() + head_count);
    std::vector<float> head_scores;
    head_scores.reserve(head_count);
    for (const uint32_t v : head_nodes) head_scores.push_back(dense[v]);

    entry.scores = std::vector<float>{};
    entry.compressed = true;
    entry.head_nodes = std::move(head_nodes);
    entry.head_scores = std::move(head_scores);
    entry.tail_nodes = std::move(tail_nodes);
    entry.tail_quants = std::move(tail_quants);
    entry.tail_scale = tail_scale;
    entry.drop_bound = drop_bound;
    entry.dropped_mass = dropped_mass;
    ++stats.terms_compressed;
    stats.max_epsilon = std::max(stats.max_epsilon, entry.epsilon());
    stats.bytes_after += compressed_bytes;
  }
  return stats;
}

size_t RankCache::num_compressed_terms() const {
  size_t count = 0;
  for (const auto& [term, entry] : entries_) count += entry.compressed;
  return count;
}

StatusOr<RankCache::QueryResult> RankCache::Query(
    const text::QueryVector& query) const {
  if (query.empty()) {
    return InvalidArgumentError("empty query vector");
  }
  // Combination coefficients c_t = qf(w_t) * Z_t, normalized.
  struct Part {
    const Entry* entry;
    double coefficient;
  };
  std::vector<Part> parts;
  QueryResult result;
  double total = 0.0;
  size_t cached_terms = 0;
  for (size_t i = 0; i < query.size(); ++i) {
    auto it = entries_.find(query.terms()[i]);
    if (it == entries_.end()) {
      result.missing_terms.push_back(query.terms()[i]);
      continue;
    }
    ++cached_terms;
    const double coefficient =
        text::QueryTermFactor(query.weights()[i], bm25_) * it->second.mass;
    if (coefficient <= 0.0) {
      // A cached term whose coefficient is not positive (zero or negative
      // query weight, or a massless entry) cannot contribute to the
      // convex combination; report it as missing so callers do not
      // mistake the partial combination for the exact answer.
      result.missing_terms.push_back(query.terms()[i]);
      continue;
    }
    parts.push_back(Part{&it->second, coefficient});
    total += coefficient;
  }
  if (parts.empty() || total <= 0.0) {
    return NotFoundError(cached_terms == 0
                             ? "no query term is cached"
                             : "no cached query term has a positive "
                               "combination coefficient");
  }

  result.scores.assign(num_nodes_, 0.0);
  for (const Part& part : parts) {
    const double c = part.coefficient / total;
    const Entry& entry = *part.entry;
    if (!entry.compressed) {
      const std::span<const float> r = entry.scores;
      ORX_CHECK_EQ(r.size(), num_nodes_);
      for (size_t v = 0; v < num_nodes_; ++v) {
        result.scores[v] += c * static_cast<double>(r[v]);
      }
      continue;
    }
    // Compressed entries scatter only their stored nodes — the sparse
    // upside of the representation — and surrender their per-term error
    // bound, scaled by the same normalized coefficient as the scores.
    for (size_t i = 0; i < entry.head_nodes.size(); ++i) {
      result.scores[entry.head_nodes[i]] +=
          c * static_cast<double>(entry.head_scores[i]);
    }
    for (size_t i = 0; i < entry.tail_nodes.size(); ++i) {
      result.scores[entry.tail_nodes[i]] +=
          c * static_cast<double>(entry.tail_quants[i]) * entry.tail_scale;
    }
    result.error_bound += c * entry.epsilon();
    ++result.compressed_terms;
  }
  return result;
}

Status RankCache::ValidateInvariants() const {
  for (const auto& [term, entry] : entries_) {
    if (term.empty()) {
      return InternalError("invariant violation: rank cache holds an entry "
                           "with an empty term");
    }
    if (!std::isfinite(entry.mass) || entry.mass < 0.0) {
      return InternalError("invariant violation: term '" + term +
                           "' has mass " + std::to_string(entry.mass));
    }
    if (!entry.compressed) {
      if (entry.scores.size() != num_nodes_) {
        return InternalError(
            "invariant violation: term '" + term + "' has " +
            std::to_string(entry.scores.size()) + " scores, want num_nodes " +
            std::to_string(num_nodes_));
      }
      for (size_t v = 0; v < entry.scores.size(); ++v) {
        const float s = entry.scores[v];
        if (!std::isfinite(s) || s < 0.0f) {
          return InternalError("invariant violation: term '" + term +
                               "' has score " + std::to_string(s) +
                               " at node " + std::to_string(v));
        }
      }
      continue;
    }
    // Compressed-entry invariants: the value-level checks FromParts
    // deliberately defers. Violating any of them breaks the
    // one-sided error accounting Query's error_bound relies on.
    if (!entry.scores.empty()) {
      return InternalError("invariant violation: compressed term '" + term +
                           "' still carries a dense score vector");
    }
    if (entry.head_nodes.size() != entry.head_scores.size() ||
        entry.tail_nodes.size() != entry.tail_quants.size()) {
      return InternalError("invariant violation: compressed term '" + term +
                           "' has mismatched node/value array lengths");
    }
    float prev_score = std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < entry.head_nodes.size(); ++i) {
      const uint32_t v = entry.head_nodes[i];
      const float s = entry.head_scores[i];
      if (v >= num_nodes_) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' head node " + std::to_string(v) +
                             " out of range");
      }
      if (!std::isfinite(s) || s < 0.0f) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' has head score " + std::to_string(s));
      }
      // The head is the top of the score distribution: descending, so
      // the drop_bound/tail_scale epsilons really do dominate everything
      // below it.
      if (s > prev_score) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' head scores are not descending");
      }
      prev_score = s;
    }
    uint32_t prev_node = 0;
    for (size_t i = 0; i < entry.tail_nodes.size(); ++i) {
      const uint32_t v = entry.tail_nodes[i];
      if (v >= num_nodes_) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' tail node " + std::to_string(v) +
                             " out of range");
      }
      if (i > 0 && v <= prev_node) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' tail nodes are not strictly ascending");
      }
      prev_node = v;
      if (entry.tail_quants[i] == 0) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' stores a zero tail quant at node " +
                             std::to_string(v));
      }
    }
    // Head and tail must be disjoint: a node stored twice would
    // double-count in Query's scatter.
    {
      std::unordered_set<uint32_t> head_set(entry.head_nodes.begin(),
                                            entry.head_nodes.end());
      if (head_set.size() != entry.head_nodes.size()) {
        return InternalError("invariant violation: compressed term '" + term +
                             "' repeats a head node");
      }
      for (const uint32_t v : entry.tail_nodes) {
        if (head_set.count(v) != 0) {
          return InternalError("invariant violation: compressed term '" +
                               term + "' stores node " + std::to_string(v) +
                               " in both head and tail");
        }
      }
    }
    if (!std::isfinite(entry.tail_scale) || entry.tail_scale < 0.0 ||
        (entry.tail_scale == 0.0 && !entry.tail_nodes.empty())) {
      return InternalError("invariant violation: compressed term '" + term +
                           "' has tail scale " +
                           std::to_string(entry.tail_scale) + " with " +
                           std::to_string(entry.tail_nodes.size()) +
                           " tail nodes");
    }
    if (!std::isfinite(entry.drop_bound) || entry.drop_bound < 0.0 ||
        !std::isfinite(entry.dropped_mass) || entry.dropped_mass < 0.0) {
      return InternalError("invariant violation: compressed term '" + term +
                           "' has drop bound " +
                           std::to_string(entry.drop_bound) +
                           ", dropped mass " +
                           std::to_string(entry.dropped_mass));
    }
  }
  return Status::OK();
}

size_t RankCache::MemoryFootprintBytes() const {
  size_t bytes = 0;
  for (const auto& [term, entry] : entries_) {
    bytes += term.size() + sizeof(Entry) + EntryPayloadBytes(entry);
  }
  return bytes;
}

}  // namespace orx::core
