// Certification suite for the cached tier (CertifyTopK in core/top_k.h,
// docs/rank_cache.md). A compressed rank-cache hit carries scores that
// are one-sided within a certified bound: for every node v,
//     scores[v] <= exact[v] <= scores[v] + bound
// and the hit only stands if its top-k set provably IS the exact top-k
// set, not an approximation of it. The reference comes from the power
// iteration driven far past its production tolerance, and the
// certification sweep perturbs it one-sidedly within the bound, so any
// estimate a compressed entry could legally produce is fair game.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/objectrank.h"
#include "core/rank_cache.h"
#include "core/searcher.h"
#include "core/top_k.h"
#include "datasets/dblp_generator.h"
#include "text/query.h"

namespace orx::core {
namespace {

// Reference solve: tolerance orders of magnitude below any bound the
// certification sweep uses, so the comparisons below are about the
// certificate, not the referee.
constexpr double kReferenceEpsilon = 1e-13;

struct RandomCase {
  datasets::DblpDataset dblp;
  graph::TransferRates rates;
  BaseSet base;
};

BaseSet MakeRandomBase(Rng& rng, size_t n, size_t base_nodes) {
  std::vector<graph::NodeId> nodes;
  while (nodes.size() < std::min(base_nodes, n)) {
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(n));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<double> weights(nodes.size());
  double total = 0.0;
  for (double& w : weights) {
    w = rng.UniformDouble() + 0.01;
    total += w;
  }
  BaseSet base;
  for (size_t i = 0; i < nodes.size(); ++i) {
    base.entries.emplace_back(nodes[i], weights[i] / total);
  }
  return base;
}

RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const auto papers = static_cast<uint32_t>(30 + rng.UniformInt(120));
  RandomCase c{datasets::GenerateDblp(
                   datasets::DblpGeneratorConfig::Tiny(papers, seed)),
               {}, {}};
  c.rates = graph::TransferRates(c.dblp.dataset.schema(), 0.0);
  for (uint32_t slot = 0; slot < c.rates.num_slots(); ++slot) {
    c.rates.set_slot(slot, rng.UniformDouble());
  }
  c.rates.CapOutgoingSums(c.dblp.dataset.schema());
  const size_t n = c.dblp.dataset.data().num_nodes();
  c.base = MakeRandomBase(rng, n, 1 + rng.UniformInt(6));
  return c;
}

std::vector<double> ReferenceScores(const ObjectRankEngine& engine,
                                    const RandomCase& c) {
  ObjectRankOptions options;
  options.epsilon = kReferenceEpsilon;
  options.max_iterations = 5000;
  return engine.Compute(c.base, c.rates, options).scores;
}

// Certification is exactness: whenever CertifyTopK accepts a top-k set
// under a bound, that set equals the reference top-k set — for every
// one-sided estimate est = exact - u * bound with u in [0, 1] per node.
// Each case is checked under a random u and under the adversarial u that
// pushes the true top-k down by the full bound and leaves the rest.
TEST(CacheTierCertification, CertifiedTopKSetsEqualExactTopKSets) {
  size_t certified_cases = 0;
  size_t rejected_cases = 0;
  for (uint64_t seed = 300; seed < 400; ++seed) {
    const RandomCase c = MakeRandomCase(seed);
    const ObjectRankEngine engine(c.dblp.dataset.authority());
    const std::vector<double> exact = ReferenceScores(engine, c);
    const graph::DataGraph& data = c.dblp.dataset.data();
    const double bounds[] = {1e-3, 1e-4, 1e-5, 1e-6};
    const double bound = bounds[seed % 4];
    Rng rng(seed);

    for (const size_t k : {size_t{1}, size_t{5}, size_t{10}}) {
      for (const std::optional<graph::TypeId> type :
           {std::optional<graph::TypeId>{},
            std::optional<graph::TypeId>{c.dblp.types.paper}}) {
        const std::vector<ScoredNode> truth = TopKOfType(exact, k, data, type);
        std::vector<double> random_est(exact.size());
        std::vector<double> adversarial_est = exact;
        for (size_t v = 0; v < exact.size(); ++v) {
          random_est[v] = exact[v] - rng.UniformDouble() * bound;
        }
        for (const ScoredNode& s : truth) adversarial_est[s.node] -= bound;

        for (const std::vector<double>* est : {&random_est, &adversarial_est}) {
          const CertifiedTopK cert = CertifyTopK(*est, bound, k, data, type);
          if (!cert.certified) {
            ++rejected_cases;
            continue;
          }
          ++certified_cases;
          ASSERT_EQ(cert.top.size(), truth.size())
              << "seed " << seed << " k " << k;
          std::vector<uint64_t> got, want;
          for (const ScoredNode& s : cert.top) got.push_back(s.node);
          for (const ScoredNode& s : truth) want.push_back(s.node);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          EXPECT_EQ(got, want) << "seed " << seed << " k " << k
                               << ": certified set differs from exact set";
        }
      }
    }
  }
  // Both outcomes must occur, or one of the assertions above is vacuous:
  // the bounds span gaps the tiny graphs do and do not separate.
  EXPECT_GE(certified_cases, 100u);
  EXPECT_GE(rejected_cases, 100u);
}

// Compressed-cache tier: a kAuto search whose compressed hit passes
// certification returns the same top-k set as the dense cache; one that
// cannot certify falls back to the exact kernel with the kErrorBudget
// miss reason instead of serving an unproven set.
TEST(CacheTierSearcher, CompressedCacheHitsCertifyAgainstDense) {
  const datasets::DblpDataset dblp =
      datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(400, 11));
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const text::Corpus& corpus = dblp.dataset.corpus();

  std::vector<std::string> terms;
  for (text::TermId t = 0; t < corpus.vocab_size() && terms.size() < 12;
       ++t) {
    if (corpus.Df(t) >= 2) terms.push_back(corpus.TermString(t));
  }
  ASSERT_FALSE(terms.empty());

  RankCache::Options cache_options;
  RankCache dense = RankCache::BuildForTerms(
      dblp.dataset.authority(), corpus, rates, terms, cache_options);
  RankCache compressed = RankCache::BuildForTerms(
      dblp.dataset.authority(), corpus, rates, terms, cache_options);
  const RankCache::CompressionStats stats = compressed.Compress();
  EXPECT_GT(stats.terms_compressed + stats.terms_dense, 0u);

  for (const std::string& term : terms) {
    const text::QueryVector query(text::ParseQuery(term));

    Searcher dense_searcher(dblp.dataset.data(), dblp.dataset.authority(),
                            corpus);
    dense_searcher.AttachRankCache(&dense);
    SearchOptions options;
    options.k = 5;
    options.tier = SearchTier::kAuto;
    const auto dense_hit = dense_searcher.Search(query, rates, options);
    ASSERT_TRUE(dense_hit.ok());
    ASSERT_EQ(dense_hit->tier_used, SearchTier::kCached);

    Searcher searcher(dblp.dataset.data(), dblp.dataset.authority(), corpus);
    searcher.AttachRankCache(&compressed);
    const auto hit = searcher.Search(query, rates, options);
    ASSERT_TRUE(hit.ok());
    if (hit->tier_used != SearchTier::kCached) {
      // Certification rejected the compressed entry: the miss reason must
      // say so, and the answer is the exact kernel's.
      EXPECT_EQ(hit->tier_used, SearchTier::kExact);
      EXPECT_EQ(hit->cache_miss_reason, CacheMissReason::kErrorBudget);
      continue;
    }
    std::vector<uint64_t> got, want;
    for (const ScoredNode& s : hit->top) got.push_back(s.node);
    for (const ScoredNode& s : dense_hit->top) want.push_back(s.node);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "term " << term;
  }
}

// Concurrent tier selection: many threads mixing tiers against a shared
// RankCache and per-thread Searchers over the same graph. The shared
// surfaces (cache queries, certification) must be race-free — this test
// carries the tsan label.
TEST(CacheTierConcurrent, MixedTiersAreRaceFree) {
  const datasets::DblpDataset dblp =
      datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(300, 23));
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const text::Corpus& corpus = dblp.dataset.corpus();

  std::vector<std::string> terms;
  for (text::TermId t = 0; t < corpus.vocab_size() && terms.size() < 8;
       ++t) {
    if (corpus.Df(t) >= 2) terms.push_back(corpus.TermString(t));
  }
  ASSERT_FALSE(terms.empty());

  RankCache::Options cache_options;
  RankCache cache = RankCache::BuildForTerms(
      dblp.dataset.authority(), corpus, rates, terms, cache_options);
  const RankCache::CompressionStats stats = cache.Compress();
  (void)stats;

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  const SearchTier tiers[] = {SearchTier::kAuto, SearchTier::kExact};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Searcher searcher(dblp.dataset.data(), dblp.dataset.authority(),
                        corpus);
      searcher.AttachRankCache(&cache);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const std::string& term = terms[(w + q) % terms.size()];
        SearchOptions options;
        options.k = 5;
        options.tier = tiers[(w * kQueriesPerThread + q) % 2];
        const auto result = searcher.Search(
            text::QueryVector(text::ParseQuery(term)), rates, options);
        if (!result.ok() || result->top.empty()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace orx::core
