// Quality-vs-latency frontier of the execution tiers: the exact fused
// power iteration and the precomputed rank cache, dense vs compressed.
// For every tier the sweep reports precision@k and recall@k against the
// exact golden top-k, exact nearest-rank latency percentiles over the
// sorted samples, and — for compressed hits, the one bounded answer —
// whether the reported additive error bound actually dominates the
// measured L-inf error (the property the tier-smoke CI gate asserts).
//
// Emits BENCH_tier_frontier.json (shared bench-record schema, one record
// per tier configuration). Honors ORX_BENCH_SCALE for smoke runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/rank_cache.h"
#include "core/searcher.h"
#include "orxbench/percentiles.h"
#include "text/query.h"

namespace {

using namespace orx;

/// One tier configuration of the sweep.
struct TierConfig {
  std::string name;
  core::SearchTier tier = core::SearchTier::kExact;
  const core::RankCache* cache = nullptr;  // cached tiers only
};

/// Golden outcome of one query under the exact tier.
struct Golden {
  std::unordered_set<uint64_t> top;  // exact top-k node set
  std::vector<double> scores;        // full exact vector
};

/// Aggregates of one tier over one df band (or the whole mix).
struct BandOutcome {
  /// Execution-stage seconds of every timed search; Finish() sorts them.
  std::vector<double> latency;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  size_t queries = 0;
  /// Searches the rank cache declined (a cache_miss_reason other than
  /// kNone), so the exact kernel answered.
  size_t cache_misses = 0;
  size_t cache_hits = 0;
  /// Largest measured L-inf vs the reference and largest reported bound,
  /// over queries that reported a positive bound.
  double max_measured_linf = 0.0;
  double max_reported_bound = 0.0;
  /// False iff some query's reported bound was below its measured error.
  bool bound_holds = true;

  void Finish() { std::sort(latency.begin(), latency.end()); }
  /// Exact nearest-rank percentile in seconds (call Finish() first).
  double Percentile(double p) const {
    return latency.empty() ? 0.0
                           : orxbench::PercentileOfSorted(latency, p);
  }
  double MeanSeconds() const {
    double sum = 0.0;
    for (const double seconds : latency) sum += seconds;
    return latency.empty() ? 0.0 : sum / static_cast<double>(latency.size());
  }
};

/// Aggregates of one tier: the whole mix plus per-band breakdown.
struct TierOutcome {
  BandOutcome all;
  std::map<std::string, BandOutcome> by_band;
};

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  std::printf("=== Tier frontier: exact / cached tiers (scale=%.3f) ===\n\n",
              scale);
  datasets::DblpDataset dblp = datasets::GenerateDblp(bench::ScaledDblp(
      datasets::DblpGeneratorConfig::DblpComplete(), scale));
  const graph::DataGraph& data = dblp.dataset.data();
  const graph::AuthorityGraph& authority = dblp.dataset.authority();
  const text::Corpus& corpus = dblp.dataset.corpus();
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const bench::BenchDataset dataset_info{
      "dblp-complete-synthetic", data.num_nodes(), authority.num_edges()};
  std::printf("dataset: %zu nodes, %zu edges\n\n", dataset_info.nodes,
              dataset_info.edges);

  // Query mix across document-frequency bands: head terms seed base sets
  // that span the graph, tail terms seed small ones. The exact kernel
  // sweeps the whole graph either way, while the cache answers every
  // band at the same cost, so the bands show where the gap is widest.
  std::vector<std::pair<uint32_t, std::string>> by_df;
  for (text::TermId t = 0; t < corpus.vocab_size(); ++t) {
    if (corpus.Df(t) >= 3) by_df.emplace_back(corpus.Df(t), corpus.TermString(t));
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const size_t per_band = 8;
  std::vector<std::string> mix;
  std::vector<std::string> bands;  // parallel to mix: head / mid / tail
  auto add_band = [&](const char* band, size_t start) {
    for (size_t i = start; i < by_df.size() && i < start + per_band; ++i) {
      mix.push_back(by_df[i].second);
      bands.push_back(band);
    }
  };
  add_band("head", 0);
  add_band("mid", by_df.size() / 2);
  add_band("tail", by_df.size() > per_band ? by_df.size() - per_band : 0);
  for (size_t i = 0; i + 1 < by_df.size() && i < 8; i += 2) {
    mix.push_back(by_df[i].second + " " + by_df[i + 1].second);
    bands.push_back("head");
  }
  if (mix.empty()) {
    std::printf("corpus has no terms with df >= 3; nothing to rank\n");
    return 1;
  }

  const size_t k = 10;
  core::SearchOptions base_options;
  base_options.k = k;
  base_options.result_type = dblp.types.paper;
  // Each query is measured independently — warm starts would let the
  // previous query subsidize the next and blur the tier comparison.
  base_options.use_warm_start = false;

  // Rank cache over the mix's terms: one dense copy and one compressed
  // copy (identical vectors before compression), so the cached tier's
  // two variants differ only in representation.
  std::vector<std::string> cache_terms;
  {
    std::unordered_set<std::string> seen;
    for (const std::string& q : mix) {
      for (const std::string& term : text::ParseQuery(q)) {
        if (seen.insert(term).second) cache_terms.push_back(term);
      }
    }
  }
  core::RankCache::Options cache_options;
  cache_options.objectrank = base_options.objectrank;
  cache_options.bm25 = base_options.bm25;
  cache_options.build_threads = bench::BuildThreadsFromEnv();
  std::printf("building rank cache for %zu terms...\n", cache_terms.size());
  Timer cache_timer;
  core::RankCache dense_cache = core::RankCache::BuildForTerms(
      authority, corpus, rates, cache_terms, cache_options);
  core::RankCache compressed_cache = core::RankCache::BuildForTerms(
      authority, corpus, rates, cache_terms, cache_options);
  const core::RankCache::CompressionStats compression =
      compressed_cache.Compress();
  std::printf("cache built in %.2fs; compression: %s\n\n",
              cache_timer.ElapsedSeconds(), compression.ToString().c_str());

  const std::vector<TierConfig> tiers = {
      {"exact", core::SearchTier::kExact, nullptr},
      {"cached_dense", core::SearchTier::kAuto, &dense_cache},
      {"cached_compressed", core::SearchTier::kAuto, &compressed_cache},
  };

  // Exact goldens first: the quality reference every tier is scored
  // against. Solved far past the production epsilon (0.001) so the
  // golden's own solver error cannot decide a precision@k tie. The
  // timed exact tier below keeps production options; this pass is the
  // referee, not a contestant.
  std::vector<Golden> goldens(mix.size());
  {
    core::Searcher searcher(data, authority, corpus);
    core::SearchOptions options = base_options;
    options.tier = core::SearchTier::kExact;
    options.objectrank.epsilon = 1e-10;
    options.objectrank.max_iterations = 2000;
    for (size_t q = 0; q < mix.size(); ++q) {
      auto result =
          searcher.Search(text::QueryVector(text::ParseQuery(mix[q])),
                          rates, options);
      if (!result.ok()) continue;  // keyword absent at tiny scales
      for (const core::ScoredNode& node : result->top) {
        goldens[q].top.insert(node.node);
      }
      goldens[q].scores = std::move(result->scores);
    }
  }

  const int repeats = 3;
  std::vector<TierOutcome> outcomes(tiers.size());
  // Per-query dense-cache vectors, captured while the cached_dense tier
  // runs. The compression bound certifies representation error relative
  // to the dense precomputed vectors — not to a fresh power iteration,
  // which differs from them by the builder's solver tolerance — so the
  // compressed tier's L-inf is measured against these.
  std::vector<std::vector<double>> dense_reference(mix.size());
  for (size_t t = 0; t < tiers.size(); ++t) {
    const TierConfig& tier = tiers[t];
    TierOutcome& out = outcomes[t];
    core::Searcher searcher(data, authority, corpus);
    if (tier.cache != nullptr) searcher.AttachRankCache(tier.cache);
    core::SearchOptions options = base_options;
    options.tier = tier.tier;
    for (size_t q = 0; q < mix.size(); ++q) {
      if (goldens[q].scores.empty()) continue;
      const text::QueryVector query(text::ParseQuery(mix[q]));
      BandOutcome& band = out.by_band[bands[q]];
      const auto record_both = [&](const auto& fn) {
        fn(out.all);
        fn(band);
      };
      for (int r = 0; r < repeats; ++r) {
        auto result = searcher.Search(query, rates, options);
        if (!result.ok()) continue;
        record_both(
            [&](BandOutcome& b) { b.latency.push_back(result->seconds); });
        if (r != 0) continue;  // quality is deterministic per query
        size_t overlap = 0;
        for (const core::ScoredNode& node : result->top) {
          overlap += goldens[q].top.count(node.node);
        }
        const double precision =
            static_cast<double>(overlap) /
            static_cast<double>(std::max<size_t>(1, result->top.size()));
        const double recall =
            static_cast<double>(overlap) /
            static_cast<double>(std::max<size_t>(1, goldens[q].top.size()));
        const bool cache_hit =
            result->tier_used == core::SearchTier::kCached;
        if (tier.cache == &dense_cache && cache_hit) {
          dense_reference[q] = result->scores;
        }
        double linf = -1.0;
        if (result->error_bound > 0.0) {
          const std::vector<double>& reference =
              (tier.cache == &compressed_cache && !dense_reference[q].empty())
                  ? dense_reference[q]
                  : goldens[q].scores;
          linf = 0.0;
          for (size_t v = 0; v < reference.size(); ++v) {
            linf = std::max(linf,
                            std::abs(reference[v] - result->scores[v]));
          }
        }
        record_both([&](BandOutcome& b) {
          ++b.queries;
          if (result->cache_miss_reason != core::CacheMissReason::kNone) {
            ++b.cache_misses;
          }
          if (cache_hit) ++b.cache_hits;
          b.precision_sum += precision;
          b.recall_sum += recall;
          if (linf >= 0.0) {
            b.max_measured_linf = std::max(b.max_measured_linf, linf);
            b.max_reported_bound =
                std::max(b.max_reported_bound, result->error_bound);
            if (linf > result->error_bound) b.bound_holds = false;
          }
        });
      }
    }
  }

  for (TierOutcome& out : outcomes) {
    out.all.Finish();
    for (auto& [band, outcome] : out.by_band) outcome.Finish();
  }
  // Speedups are banded against the exact tier's p50 for the *same* band:
  // the exact kernel's cost is query-independent, but banding keeps the
  // ratio honest anyway.
  const auto exact_p50_of = [&](const std::string& band) {
    if (band == "all") return outcomes[0].all.Percentile(50);
    const auto it = outcomes[0].by_band.find(band);
    return it == outcomes[0].by_band.end() ? 0.0 : it->second.Percentile(50);
  };
  TablePrinter table({"tier", "queries", "cache misses", "precision@10",
                      "p50 (ms)", "p99 (ms)", "speedup", "tail p50",
                      "tail speedup", "bound"});
  std::vector<std::string> records;
  Timer wall;
  for (size_t t = 0; t < tiers.size(); ++t) {
    const TierConfig& tier = tiers[t];
    const TierOutcome& out = outcomes[t];
    std::vector<std::pair<std::string, const BandOutcome*>> slices;
    slices.emplace_back("all", &out.all);
    for (const auto& [band, outcome] : out.by_band) {
      slices.emplace_back(band, &outcome);
    }
    for (const auto& [band, outcome] : slices) {
      const double n = std::max<size_t>(1, outcome->queries);
      const double exact_p50 = exact_p50_of(band);
      const double p50 = outcome->Percentile(50);
      bench::JsonObject record = bench::BenchRecord(
          "tier_frontier", dataset_info, 1, wall.ElapsedSeconds());
      record.Add("tier", tier.name)
          .Add("band", band)
          .Add("k", k)
          .Add("queries", outcome->queries)
          .Add("cache_misses", outcome->cache_misses)
          .Add("cache_hits", outcome->cache_hits)
          .Add("precision_at_k", outcome->precision_sum / n)
          .Add("recall_at_k", outcome->recall_sum / n)
          .Add("latency_samples", outcome->latency.size())
          .Add("latency_p50_ms", p50 * 1e3)
          .Add("latency_p95_ms", outcome->Percentile(95) * 1e3)
          .Add("latency_p99_ms", outcome->Percentile(99) * 1e3)
          .Add("latency_mean_ms", outcome->MeanSeconds() * 1e3)
          .Add("speedup_vs_exact_p50", p50 > 0.0 ? exact_p50 / p50 : 0.0)
          .Add("max_measured_linf", outcome->max_measured_linf)
          .Add("max_reported_bound", outcome->max_reported_bound)
          .Add("bound_holds", outcome->bound_holds);
      if (tier.name == "cached_compressed" && band == "all") {
        record
            .Add("cache_bytes_dense",
                 static_cast<unsigned long long>(compression.bytes_before))
            .Add("cache_bytes_compressed",
                 static_cast<unsigned long long>(compression.bytes_after))
            .Add("cache_compression_ratio",
                 compression.bytes_after > 0
                     ? static_cast<double>(compression.bytes_before) /
                           static_cast<double>(compression.bytes_after)
                     : 0.0);
      }
      records.push_back(record.ToString());
    }
    const BandOutcome& all = out.all;
    const double n = std::max<size_t>(1, all.queries);
    const double p50 = all.Percentile(50);
    const double speedup = p50 > 0.0 ? exact_p50_of("all") / p50 : 0.0;
    double tail_p50 = 0.0;
    double tail_speedup = 0.0;
    if (const auto it = out.by_band.find("tail"); it != out.by_band.end()) {
      tail_p50 = it->second.Percentile(50);
      tail_speedup = tail_p50 > 0.0 ? exact_p50_of("tail") / tail_p50 : 0.0;
    }
    bool bound_holds = all.bound_holds;
    table.AddRow(
        {tier.name, std::to_string(all.queries),
         std::to_string(all.cache_misses),
         FormatDouble(all.precision_sum / n, 4), FormatDouble(p50 * 1e3, 3),
         FormatDouble(all.Percentile(99) * 1e3, 3),
         FormatDouble(speedup, 1) + "x", FormatDouble(tail_p50 * 1e3, 3),
         FormatDouble(tail_speedup, 1) + "x", bound_holds ? "ok" : "FAIL"});
  }
  std::printf("%s", table.ToString().c_str());
  bench::WriteJsonFile("BENCH_tier_frontier.json",
                       bench::JsonArray(records));

  // The frontier is informational; the bound is a hard property. Exit
  // nonzero if any tier reported a bound its measured error exceeded —
  // the same contract cache_tier_test.cc and the tier-smoke gate hold.
  for (const TierOutcome& out : outcomes) {
    if (!out.all.bound_holds) {
      std::fprintf(stderr, "tier frontier: FAIL — a reported error bound "
                           "was below the measured L-inf error\n");
      return 1;
    }
  }
  std::printf("\ntier frontier: every reported bound dominates its "
              "measured L-inf error\n");
  return 0;
}
