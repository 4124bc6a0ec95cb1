#include "core/searcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "datasets/dblp_generator.h"
#include "datasets/figure1.h"
#include "text/query.h"

namespace orx::core {
namespace {

class SearcherFigure1Test : public ::testing::Test {
 protected:
  SearcherFigure1Test()
      : fig_(datasets::MakeFigure1Dataset()),
        rates_(datasets::DblpGroundTruthRates(fig_.dataset.schema(),
                                              fig_.types)),
        searcher_(fig_.dataset.data(), fig_.dataset.authority(),
                  fig_.dataset.corpus()) {}

  datasets::Figure1Dataset fig_;
  graph::TransferRates rates_;
  Searcher searcher_;
};

TEST_F(SearcherFigure1Test, TopResultIsDataCube) {
  text::QueryVector q(text::ParseQuery("olap"));
  auto result = searcher_.Search(q, rates_);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->top.empty());
  EXPECT_EQ(result->top[0].node, fig_.v7_data_cube);
  EXPECT_EQ(result->base_set_size, 2u);
  EXPECT_TRUE(result->converged);
  EXPECT_GT(result->iterations, 0);
}

TEST_F(SearcherFigure1Test, ResultTypeFilter) {
  text::QueryVector q(text::ParseQuery("olap"));
  SearchOptions options;
  options.result_type = fig_.types.author;
  auto result = searcher_.Search(q, rates_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->top.size(), 1u);
  EXPECT_EQ(result->top[0].node, fig_.v6_agrawal);
}

TEST_F(SearcherFigure1Test, EmptyQueryIsInvalid) {
  text::QueryVector q;
  EXPECT_EQ(searcher_.Search(q, rates_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SearcherFigure1Test, UnknownKeywordIsNotFound) {
  text::QueryVector q(text::ParseQuery("doesnotappear"));
  EXPECT_EQ(searcher_.Search(q, rates_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SearcherFigure1Test, BaselineModeRanksPapers) {
  text::QueryVector q(text::ParseQuery("olap"));
  SearchOptions options;
  options.mode = RankMode::kObjectRankBaseline;
  auto result = searcher_.Search(q, rates_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->top.empty());
  // The baseline also ranks "Data Cube" first on this graph.
  EXPECT_EQ(result->top[0].node, fig_.v7_data_cube);
}

TEST_F(SearcherFigure1Test, BaselineMultiKeywordProductSemantics) {
  // [olap, multidimensional]: only nodes reachable from both keywords'
  // base sets keep a nonzero product score.
  text::QueryVector q(text::ParseQuery("olap multidimensional"));
  SearchOptions options;
  options.mode = RankMode::kObjectRankBaseline;
  auto result = searcher_.Search(q, rates_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->scores[fig_.v7_data_cube], 0.0);
  // v2 (conference) receives authority from both sides too — just check
  // the product semantics kept the vector finite and non-negative.
  for (double s : result->scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST_F(SearcherFigure1Test, OutOfRangeOptionsAreInvalid) {
  text::QueryVector q(text::ParseQuery("olap"));
  auto expect_invalid = [&](const SearchOptions& options) {
    auto result = searcher_.Search(q, rates_, options);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  };
  SearchOptions options;
  options.k = 0;
  expect_invalid(options);

  options = SearchOptions();
  options.objectrank.damping = 1.5;
  expect_invalid(options);
  options.objectrank.damping = 1.0;  // boundary: the iteration never mixes
  expect_invalid(options);           // the base set back in
  options.objectrank.damping = -0.1;
  expect_invalid(options);
  options.objectrank.damping = std::nan("");
  expect_invalid(options);

  options = SearchOptions();
  options.objectrank.epsilon = 0.0;
  expect_invalid(options);
  options.objectrank.epsilon = -1.0;
  expect_invalid(options);
  options.objectrank.epsilon = std::nan("");
  expect_invalid(options);

  options = SearchOptions();
  options.objectrank.max_iterations = -1;
  expect_invalid(options);

  // kCached only reports what answered; a request names kAuto or kExact.
  options = SearchOptions();
  options.tier = SearchTier::kCached;
  expect_invalid(options);
  options.mode = RankMode::kObjectRankBaseline;
  expect_invalid(options);
  options.tier = SearchTier::kExact;
  EXPECT_TRUE(searcher_.Search(q, rates_, options).ok());

  // The boundary values the experiments actually use stay accepted.
  options = SearchOptions();
  options.objectrank.damping = 0.0;
  options.objectrank.max_iterations = 0;
  EXPECT_TRUE(searcher_.Search(q, rates_, options).ok());
}

TEST_F(SearcherFigure1Test, CancellationSurfacesDeadlineExceeded) {
  text::QueryVector q(text::ParseQuery("olap"));
  SearchOptions options;
  options.objectrank.cancel = [] { return true; };  // trip immediately
  auto result = searcher_.Search(q, rates_, options);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The partial iterate must not leak into the session's warm-start
  // state.
  EXPECT_EQ(searcher_.previous_scores(), nullptr);

  // The session works normally once the hook stops firing.
  options.objectrank.cancel = nullptr;
  EXPECT_TRUE(searcher_.Search(q, rates_, options).ok());
  EXPECT_NE(searcher_.previous_scores(), nullptr);
}

TEST_F(SearcherFigure1Test, BaselineModeHonorsCancellation) {
  text::QueryVector q(text::ParseQuery("olap multidimensional"));
  SearchOptions options;
  options.mode = RankMode::kObjectRankBaseline;
  // Let the first per-keyword run finish, then cancel the second.
  auto calls = std::make_shared<int>(0);
  int first_run_iterations = 0;
  {
    SearchOptions probe;
    probe.mode = RankMode::kObjectRankBaseline;
    text::QueryVector single(text::ParseQuery("olap"));
    auto result = searcher_.Search(single, rates_, probe);
    ASSERT_TRUE(result.ok());
    first_run_iterations = result->iterations;
    searcher_.ResetSession();
  }
  options.objectrank.cancel = [calls, first_run_iterations] {
    return ++*calls > first_run_iterations;
  };
  auto result = searcher_.Search(q, rates_, options);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SearcherWarmStartTest, WarmStartReducesIterations) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/800, /*seed=*/5));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  Searcher searcher(dblp.dataset.data(), dblp.dataset.authority(),
                    dblp.dataset.corpus());

  text::QueryVector q(text::ParseQuery("data"));
  SearchOptions options;
  options.objectrank.epsilon = 1e-6;
  auto cold = searcher.Search(q, rates, options);
  ASSERT_TRUE(cold.ok());
  // Re-running the identical query warm-started from its own fixpoint
  // must converge in far fewer iterations (Section 6.2's optimization).
  auto warm = searcher.Search(q, rates, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->iterations, cold->iterations);

  searcher.ResetSession();
  auto cold_again = searcher.Search(q, rates, options);
  ASSERT_TRUE(cold_again.ok());
  EXPECT_EQ(cold_again->iterations, cold->iterations);
}

TEST(SearcherWarmStartTest, GlobalSeedHelpsFirstQuery) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/800, /*seed=*/6));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);

  text::QueryVector q(text::ParseQuery("data"));
  SearchOptions options;
  options.objectrank.epsilon = 1e-6;

  Searcher unseeded(dblp.dataset.data(), dblp.dataset.authority(),
                    dblp.dataset.corpus());
  auto cold = unseeded.Search(q, rates, options);
  ASSERT_TRUE(cold.ok());

  Searcher seeded(dblp.dataset.data(), dblp.dataset.authority(),
                  dblp.dataset.corpus());
  seeded.PrecomputeGlobalRank(rates, options.objectrank);
  auto warm = seeded.Search(q, rates, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm->iterations, cold->iterations);
  // Same fixpoint either way.
  for (size_t v = 0; v < cold->scores.size(); ++v) {
    EXPECT_NEAR(cold->scores[v], warm->scores[v], 1e-4);
  }
}

}  // namespace
}  // namespace orx::core
