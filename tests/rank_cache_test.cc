#include "core/rank_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <utility>

#include "core/base_set.h"
#include "core/searcher.h"
#include "datasets/dblp_generator.h"
#include "datasets/figure1.h"
#include "io/snapshot_io.h"
#include "text/query.h"

namespace orx::core {

// Test-only backdoor for forging invalid internal states (entry vectors
// whose length disagrees with num_nodes_) that the public API rejects.
struct RankCacheTestPeer {
  static void AppendScore(RankCache& cache, const std::string& term) {
    cache.entries_.at(term).scores.mut().push_back(0.0f);
  }
  static void DropScore(RankCache& cache, const std::string& term) {
    cache.entries_.at(term).scores.mut().pop_back();
  }
  static std::vector<float> Scores(const RankCache& cache,
                                   const std::string& term) {
    const auto& scores = cache.entries_.at(term).scores;
    return std::vector<float>(scores.begin(), scores.end());
  }
};

namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The cache's ORXC2 container bytes.
std::string ContainerBytes(const RankCache& cache, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(io::WriteRankCacheContainer(cache, path).ok());
  return ReadFileBytes(path);
}

class RankCacheTest : public ::testing::Test {
 protected:
  RankCacheTest()
      : dblp_(datasets::GenerateDblp(
            datasets::DblpGeneratorConfig::Tiny(/*papers=*/800,
                                                /*seed=*/55))),
        rates_(datasets::DblpGroundTruthRates(dblp_.dataset.schema(),
                                              dblp_.types)) {
    options_.objectrank.epsilon = 1e-9;
  }

  // Direct (uncached) scores for a query.
  std::vector<double> DirectScores(const text::QueryVector& query) {
    Searcher searcher(dblp_.dataset.data(), dblp_.dataset.authority(),
                      dblp_.dataset.corpus());
    SearchOptions search_options;
    search_options.objectrank = options_.objectrank;
    search_options.bm25 = options_.bm25;
    search_options.use_warm_start = false;
    auto result = searcher.Search(query, rates_, search_options);
    EXPECT_TRUE(result.ok());
    return result->scores;
  }

  datasets::DblpDataset dblp_;
  graph::TransferRates rates_;
  RankCache::Options options_;
};

TEST_F(RankCacheTest, SingleTermMatchesDirectSearch) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_, {"data"},
      options_);
  ASSERT_TRUE(cache.Contains("data"));

  text::QueryVector query(text::ParseQuery("data"));
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  auto direct = DirectScores(query);
  ASSERT_EQ(cached->scores.size(), direct.size());
  for (size_t v = 0; v < direct.size(); ++v) {
    EXPECT_NEAR(cached->scores[v], direct[v], 1e-5);
  }
  EXPECT_TRUE(cached->missing_terms.empty());
}

TEST_F(RankCacheTest, MultiTermLinearCombinationIsExact) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "query", "systems"}, options_);

  text::QueryVector query(text::ParseQuery("data query systems"));
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  auto direct = DirectScores(query);
  for (size_t v = 0; v < direct.size(); ++v) {
    EXPECT_NEAR(cached->scores[v], direct[v], 1e-5);
  }
}

TEST_F(RankCacheTest, WeightedQueryVectorsWork) {
  // Content-reformulated queries have non-uniform weights; the cache must
  // still be exact (the query-side BM25 factor is applied at combine
  // time).
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);

  text::QueryVector query;
  query.SetWeight("data", 2.0);
  query.SetWeight("mining", 0.4);
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  auto direct = DirectScores(query);
  for (size_t v = 0; v < direct.size(); ++v) {
    EXPECT_NEAR(cached->scores[v], direct[v], 1e-5);
  }
}

TEST_F(RankCacheTest, MissingTermsAreReported) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_, {"data"},
      options_);
  text::QueryVector query(text::ParseQuery("data mining"));
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached->missing_terms.size(), 1u);
  EXPECT_EQ(cached->missing_terms[0], "mining");
}

TEST_F(RankCacheTest, ErrorsOnUncachedOrEmptyQueries) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_, {"data"},
      options_);
  text::QueryVector unknown(text::ParseQuery("mining"));
  EXPECT_EQ(cache.Query(unknown).status().code(), StatusCode::kNotFound);
  text::QueryVector empty;
  EXPECT_EQ(cache.Query(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RankCacheTest, BuildRespectsDfFloorAndTermCap) {
  RankCache::Options options = options_;
  options.min_df = 5;
  options.max_terms = 10;
  RankCache cache = RankCache::Build(dblp_.dataset.authority(),
                                     dblp_.dataset.corpus(), rates_,
                                     options);
  EXPECT_LE(cache.num_terms(), 10u);
  EXPECT_GT(cache.num_terms(), 0u);
  // Only frequent terms made it.
  EXPECT_TRUE(cache.Contains("data"));  // most popular vocab term
  EXPECT_GT(cache.MemoryFootprintBytes(),
            cache.num_terms() * cache.num_nodes() * sizeof(float));
}

TEST_F(RankCacheTest, UnknownTermsAreSkippedAtBuild) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"zzznotaword", "data"}, options_);
  EXPECT_EQ(cache.num_terms(), 1u);
  EXPECT_FALSE(cache.Contains("zzznotaword"));
}

TEST_F(RankCacheTest, ContainerRoundTrip) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);
  const std::string path = TempPath("orx_cache.orxc2");
  ASSERT_TRUE(io::WriteRankCacheContainer(cache, path).ok());
  auto loaded = io::OpenMappedRankCache(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_terms(), cache.num_terms());
  EXPECT_EQ(loaded->num_nodes(), cache.num_nodes());
  EXPECT_TRUE(loaded->Contains("data"));

  text::QueryVector query(text::ParseQuery("data mining"));
  auto original = cache.Query(query);
  auto reloaded = loaded->Query(query);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(original->scores, reloaded->scores);

  // The container is byte-stable: rewriting the attached cache
  // reproduces the file.
  EXPECT_EQ(ContainerBytes(*loaded, "orx_cache_again.orxc2"),
            ReadFileBytes(path));
  EXPECT_EQ(io::OpenMappedRankCache("/nonexistent/c.orxc2").status().code(),
            StatusCode::kNotFound);
}

TEST_F(RankCacheTest, SearcherAnswersFromAttachedCache) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);
  Searcher searcher(dblp_.dataset.data(), dblp_.dataset.authority(),
                    dblp_.dataset.corpus());
  searcher.AttachRankCache(&cache);

  SearchOptions search_options;
  search_options.objectrank = options_.objectrank;
  text::QueryVector query(text::ParseQuery("data mining"));

  // Fully-cached query with matching rates: served from the cache.
  auto cached = searcher.Search(query, rates_, search_options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->tier_used, SearchTier::kCached);
  EXPECT_EQ(cached->iterations, 0);
  auto direct = DirectScores(query);
  for (size_t v = 0; v < direct.size(); ++v) {
    EXPECT_NEAR(cached->scores[v], direct[v], 1e-5);
  }

  // A query with an uncached term falls back to the power iteration.
  searcher.ResetSession();
  text::QueryVector partial(text::ParseQuery("data systems"));
  auto fallback = searcher.Search(partial, rates_, search_options);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->tier_used, SearchTier::kExact);
  EXPECT_GT(fallback->iterations, 0);

  // Changed rates (structure reformulation) invalidate the cache.
  graph::TransferRates other = rates_;
  ASSERT_TRUE(other.Set(dblp_.types.cites, graph::Direction::kForward,
                        0.65).ok());
  EXPECT_NE(other.Fingerprint(), rates_.Fingerprint());
  searcher.ResetSession();
  searcher.AttachRankCache(&cache);
  auto stale = searcher.Search(query, other, search_options);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->tier_used, SearchTier::kExact);

  // Detaching restores plain behavior.
  searcher.AttachRankCache(nullptr);
  auto detached = searcher.Search(query, rates_, search_options);
  ASSERT_TRUE(detached.ok());
  EXPECT_EQ(detached->tier_used, SearchTier::kExact);
}

TEST_F(RankCacheTest, FingerprintAndBm25SurviveTheContainer) {
  RankCache::Options options = options_;
  options.bm25.k1 += 0.3;
  options.bm25.b -= 0.1;
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_, {"data"},
      options);
  EXPECT_EQ(cache.rates_fingerprint(), rates_.Fingerprint());
  const std::string path = TempPath("orx_cache_fingerprint.orxc2");
  ASSERT_TRUE(io::WriteRankCacheContainer(cache, path).ok());
  auto loaded = io::OpenMappedRankCache(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rates_fingerprint(), cache.rates_fingerprint());
  EXPECT_TRUE(loaded->MatchesBm25(options.bm25));
  EXPECT_FALSE(loaded->MatchesBm25(options_.bm25));
}

TEST_F(RankCacheTest, ContainerWriteRejectsLengthMismatchedEntry) {
  // Regression: the attach path slices the concatenated dense scores at
  // num_nodes strides, so a mismatched entry either failed only at
  // attach (one long entry) or — one long plus one short — attached
  // cleanly with every later term's scores shifted. The writer must
  // refuse both, naming the term.
  {
    RankCache cache = RankCache::BuildForTerms(
        dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
        {"data", "mining"}, options_);
    RankCacheTestPeer::AppendScore(cache, "data");
    Status status = io::WriteRankCacheContainer(
        cache, TempPath("orx_cache_long.orxc2"));
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("'data'"), std::string::npos)
        << status.message();
  }
  {
    RankCache cache = RankCache::BuildForTerms(
        dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
        {"data", "mining", "query"}, options_);
    RankCacheTestPeer::AppendScore(cache, "data");
    RankCacheTestPeer::DropScore(cache, "mining");
    Status status = io::WriteRankCacheContainer(
        cache, TempPath("orx_cache_long_short.orxc2"));
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("'data'"), std::string::npos)
        << status.message();
  }
}

TEST_F(RankCacheTest, ZeroCoefficientTermIsReportedMissing) {
  // Regression: a cached term whose combination coefficient is <= 0
  // (zero/negative query weight) was silently dropped, so callers took
  // the partial combination for the exact answer.
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);
  text::QueryVector query;
  query.SetWeight("data", 1.0);
  query.SetWeight("mining", 0.0);
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached->missing_terms.size(), 1u);
  EXPECT_EQ(cached->missing_terms[0], "mining");

  // All coefficients non-positive: an error, with a message that no
  // longer claims the terms were uncached.
  text::QueryVector zeros;
  zeros.SetWeight("data", 0.0);
  zeros.SetWeight("mining", -1.0);
  auto none = cache.Query(zeros);
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(none.status().message().find("no query term is cached"),
            std::string::npos);
}

TEST_F(RankCacheTest, SearcherFallsBackOnZeroCoefficientTerm) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);
  Searcher searcher(dblp_.dataset.data(), dblp_.dataset.authority(),
                    dblp_.dataset.corpus());
  searcher.AttachRankCache(&cache);
  SearchOptions search_options;
  search_options.objectrank = options_.objectrank;
  search_options.use_warm_start = false;

  text::QueryVector query;
  query.SetWeight("data", 1.0);
  query.SetWeight("mining", 0.0);
  auto result = searcher.Search(query, rates_, search_options);
  ASSERT_TRUE(result.ok());
  // The cache cannot cover the zero-weight term; the searcher must run
  // the exact power iteration instead of serving the partial combination.
  EXPECT_EQ(result->tier_used, SearchTier::kExact);
  EXPECT_GT(result->iterations, 0);
}

TEST_F(RankCacheTest, SearcherRejectsCacheWithMismatchedBm25) {
  // Regression: the searcher compared only the rates fingerprint, so a
  // cache built under different Okapi parameters silently served stale
  // scores.
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "mining"}, options_);
  Searcher searcher(dblp_.dataset.data(), dblp_.dataset.authority(),
                    dblp_.dataset.corpus());
  searcher.AttachRankCache(&cache);
  text::QueryVector query(text::ParseQuery("data mining"));

  SearchOptions search_options;
  search_options.objectrank = options_.objectrank;
  search_options.use_warm_start = false;
  search_options.bm25.k1 = options_.bm25.k1 + 0.6;  // different Okapi k1
  auto mismatched = searcher.Search(query, rates_, search_options);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_EQ(mismatched->tier_used, SearchTier::kExact);
  EXPECT_GT(mismatched->iterations, 0);

  // Restoring the build-time parameters restores the cache hit.
  search_options.bm25 = options_.bm25;
  searcher.ResetSession();
  auto matched = searcher.Search(query, rates_, search_options);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->tier_used, SearchTier::kCached);
}

TEST_F(RankCacheTest, MatchesBm25ComparesAllParameters) {
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_, {"data"},
      options_);
  EXPECT_TRUE(cache.MatchesBm25(options_.bm25));
  text::Bm25Params other = options_.bm25;
  other.b += 0.1;
  EXPECT_FALSE(cache.MatchesBm25(other));
  other = options_.bm25;
  other.k3 += 1.0;
  EXPECT_FALSE(cache.MatchesBm25(other));
}

TEST_F(RankCacheTest, ParallelBuildPacksByteIdentically) {
  const std::vector<std::string> terms = {"data",    "mining", "query",
                                          "systems", "web",    "xml",
                                          "database", "search"};
  RankCache::Options sequential = options_;
  sequential.build_threads = 1;
  RankCache::BuildStats seq_stats;
  RankCache a = RankCache::BuildForTerms(dblp_.dataset.authority(),
                                         dblp_.dataset.corpus(), rates_,
                                         terms, sequential, &seq_stats);

  RankCache::Options parallel = options_;
  parallel.build_threads = 4;
  RankCache::BuildStats par_stats;
  RankCache b = RankCache::BuildForTerms(dblp_.dataset.authority(),
                                         dblp_.dataset.corpus(), rates_,
                                         terms, parallel, &par_stats);

  const std::string bytes_a = ContainerBytes(a, "orx_cache_seq.orxc2");
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ContainerBytes(b, "orx_cache_par.orxc2"));

  EXPECT_EQ(seq_stats.threads, 1);
  EXPECT_EQ(par_stats.threads, 4);
  EXPECT_EQ(seq_stats.terms_built, par_stats.terms_built);
  EXPECT_EQ(seq_stats.total_iterations, par_stats.total_iterations);
}

// The block-built cache against the per-term solves it replaces: every
// term's vector must equal, bit for bit, the float of an
// ObjectRankEngine::Compute over the same base set. Checked at 1 and 4
// build threads, over 19 terms with postings (not a multiple of the
// 8-term block) plus one without, which the build skips while its block
// still solves the others.
TEST_F(RankCacheTest, BlockBuildMatchesPerTermComputeBitForBit) {
  const text::Corpus& corpus = dblp_.dataset.corpus();
  std::vector<std::pair<uint32_t, std::string>> by_df;
  for (text::TermId t = 0; t < corpus.vocab_size(); ++t) {
    by_df.emplace_back(corpus.Df(t), corpus.TermString(t));
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  ASSERT_GE(by_df.size(), 19u);
  std::vector<std::string> terms;
  for (size_t i = 0; i < 19; ++i) terms.push_back(by_df[i].second);
  const std::string unposted = "zzznotaword";
  terms.insert(terms.begin() + 3, unposted);

  ObjectRankEngine engine(dblp_.dataset.authority());
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("build_threads=" + std::to_string(threads));
    RankCache::Options options = options_;
    options.build_threads = threads;
    RankCache::BuildStats stats;
    RankCache cache = RankCache::BuildForTerms(
        dblp_.dataset.authority(), corpus, rates_, terms, options, &stats);
    EXPECT_EQ(cache.num_terms(), 19u);
    EXPECT_FALSE(cache.Contains(unposted));
    EXPECT_EQ(stats.terms_built, 19u);
    EXPECT_EQ(stats.terms_skipped, 1u);

    long long iterations = 0;
    for (const std::string& term : terms) {
      if (term == unposted) continue;
      text::QueryVector unit;
      unit.SetWeight(term, 1.0);
      auto base =
          BuildBaseSet(corpus, unit, BaseSetMode::kIrWeighted, options.bm25);
      ASSERT_TRUE(base.ok()) << term;
      const ObjectRankResult reference =
          engine.Compute(*base, rates_, options.objectrank);
      iterations += reference.iterations;
      const std::vector<float> cached = RankCacheTestPeer::Scores(cache, term);
      ASSERT_EQ(cached.size(), reference.scores.size()) << term;
      for (size_t v = 0; v < cached.size(); ++v) {
        if (cached[v] != static_cast<float>(reference.scores[v])) {
          ADD_FAILURE() << "term '" << term << "' differs first at node " << v
                        << ": cached " << cached[v] << " vs per-term "
                        << static_cast<float>(reference.scores[v]);
          break;
        }
      }
    }
    EXPECT_EQ(stats.total_iterations, iterations);
  }
}

TEST_F(RankCacheTest, BuildStatsCountsSkippedAndBuiltTerms) {
  RankCache::BuildStats stats;
  RankCache cache = RankCache::BuildForTerms(
      dblp_.dataset.authority(), dblp_.dataset.corpus(), rates_,
      {"data", "data", "zzznotaword", "mining"}, options_, &stats);
  EXPECT_EQ(cache.num_terms(), 2u);
  EXPECT_EQ(stats.terms_requested, 4u);
  EXPECT_EQ(stats.terms_built, 2u);
  EXPECT_EQ(stats.terms_skipped, 2u);  // the duplicate and the unknown
  EXPECT_GT(stats.total_iterations, 0);
  EXPECT_EQ(stats.terms_not_converged, 0u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.term_seconds_p95, stats.term_seconds_p50);
  EXPECT_NE(stats.ToString().find("built 2/4"), std::string::npos);
}

TEST(RankCacheFigure1Test, ReproducesGoldenVector) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  RankCache::Options options;
  options.objectrank.epsilon = 1e-10;
  RankCache cache = RankCache::BuildForTerms(
      fig.dataset.authority(), fig.dataset.corpus(), rates, {"olap"},
      options);
  text::QueryVector query(text::ParseQuery("olap"));
  auto cached = cache.Query(query);
  ASSERT_TRUE(cached.ok());
  EXPECT_NEAR(cached->scores[fig.v7_data_cube], 0.083, 0.001);
  EXPECT_NEAR(cached->scores[fig.v1_index_selection], 0.076, 0.001);
}

}  // namespace
}  // namespace orx::core
