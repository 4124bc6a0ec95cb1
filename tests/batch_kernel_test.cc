// Equivalence suite for the batched power iteration (SpMM over SELL-8;
// docs/batching.md): every lane of ObjectRankEngine::ComputeBatch must be
// BIT-IDENTICAL — not merely close — to the single-query Compute it
// replaces, for any batch size, thread count, warm start, and
// convergence pattern; a batch-wide cancel stops every lane. RankCache's
// builds solve their terms through it, so this contract keeps a
// block-built cache equal to per-term solves (tests/rank_cache_test.cc
// checks that end to end). The
// perf_smoke case keeps the block pass honest: a silent fallback to
// per-lane solves would fail the amortization floor long before a real
// benchmark runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/objectrank.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_schema.h"

namespace orx::core {
namespace {

// Exact comparison: the batch kernel accumulates per-lane sums in the
// same edge order as the single-vector kernel, so equality is ==, not a
// tolerance. Reports the first mismatch instead of dumping whole vectors.
void ExpectBitIdentical(const std::vector<double>& batch,
                        const std::vector<double>& single,
                        const std::string& what) {
  ASSERT_EQ(batch.size(), single.size()) << what;
  size_t mismatches = 0;
  size_t first = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] != single[i]) {
      if (mismatches == 0) first = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << what << ": " << mismatches << " mismatching entries, first at node "
      << first << " (batch " << batch[first] << " vs single "
      << single[first] << ")";
}

BaseSet MakeRandomBase(Rng& rng, size_t n, size_t base_nodes) {
  std::vector<graph::NodeId> nodes;
  while (nodes.size() < std::min(base_nodes, n)) {
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(n));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<double> weights;
  double total = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    weights.push_back(rng.UniformDouble() + 0.01);
    total += weights.back();
  }
  BaseSet base;
  for (size_t i = 0; i < nodes.size(); ++i) {
    base.entries.emplace_back(nodes[i], weights[i] / total);
  }
  return base;
}

// A synthetic DBLP graph plus randomized rates and one base set per lane.
// Base-set sizes vary across lanes so the push phase goes dense at
// different iterations — the block composition changes mid-batch.
struct BatchCase {
  datasets::DblpDataset dblp;
  graph::TransferRates rates;
  std::vector<BaseSet> bases;
};

BatchCase MakeBatchCase(uint64_t seed, uint32_t papers, size_t lanes) {
  BatchCase c{datasets::GenerateDblp(
                  datasets::DblpGeneratorConfig::Tiny(papers, seed)),
              {},
              {}};
  Rng rng(seed * 7919 + 1);

  c.rates = graph::TransferRates(c.dblp.dataset.schema(), 0.0);
  for (uint32_t slot = 0; slot < c.rates.num_slots(); ++slot) {
    c.rates.set_slot(slot, rng.UniformDouble());
  }
  c.rates.CapOutgoingSums(c.dblp.dataset.schema());

  const size_t n = c.dblp.dataset.data().num_nodes();
  for (size_t lane = 0; lane < lanes; ++lane) {
    c.bases.push_back(MakeRandomBase(rng, n, 3 + 5 * lane));
  }
  return c;
}

ObjectRankOptions FixedWorkOptions(PowerKernel kernel, int threads) {
  ObjectRankOptions options;
  options.epsilon = 0.0;  // run exactly max_iterations in every lane
  options.max_iterations = 25;
  options.kernel = kernel;
  options.num_threads = threads;
  return options;
}

std::vector<BatchQuery> QueriesOver(const std::vector<BaseSet>& bases) {
  std::vector<BatchQuery> queries;
  for (const BaseSet& base : bases) {
    BatchQuery q;
    q.base = &base;
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(BatchKernelEquivalence, ColdStartLanesAreBitIdenticalToSingles) {
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                             size_t{8}}) {
    BatchCase c = MakeBatchCase(/*seed=*/20 + lanes, /*papers=*/400, lanes);
    ObjectRankEngine engine(c.dblp.dataset.authority());
    for (const int threads : {1, 2, 4, 8}) {
      const ObjectRankOptions options =
          FixedWorkOptions(PowerKernel::kFused, threads);
      const auto batch =
          engine.ComputeBatch(QueriesOver(c.bases), c.rates, options);
      ASSERT_EQ(batch.size(), lanes);
      for (size_t i = 0; i < lanes; ++i) {
        const auto single = engine.Compute(c.bases[i], c.rates, options);
        EXPECT_EQ(batch[i].iterations, single.iterations);
        EXPECT_EQ(batch[i].converged, single.converged);
        EXPECT_FALSE(batch[i].cancelled);
        ExpectBitIdentical(batch[i].scores, single.scores,
                           "lane " + std::to_string(i) + " of " +
                               std::to_string(lanes) + " at " +
                               std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(BatchKernelEquivalence, ConvergingLanesRetireIndependently) {
  // With a real epsilon the lanes converge at different iterations and
  // retire out of the block one by one; each must stop at exactly the
  // iteration its single-query run stops at, with identical scores.
  BatchCase c = MakeBatchCase(/*seed=*/31, /*papers=*/500, /*lanes=*/5);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions options;
  options.epsilon = 1e-9;
  options.kernel = PowerKernel::kFused;
  options.num_threads = 4;

  const auto batch =
      engine.ComputeBatch(QueriesOver(c.bases), c.rates, options);
  ASSERT_EQ(batch.size(), c.bases.size());
  std::vector<int> iteration_counts;
  for (size_t i = 0; i < c.bases.size(); ++i) {
    const auto single = engine.Compute(c.bases[i], c.rates, options);
    ASSERT_TRUE(single.converged);
    EXPECT_TRUE(batch[i].converged);
    EXPECT_EQ(batch[i].iterations, single.iterations);
    iteration_counts.push_back(batch[i].iterations);
    ExpectBitIdentical(batch[i].scores, single.scores,
                       "converging lane " + std::to_string(i));
  }
  // The retirement machinery is only exercised if lanes actually finish
  // at different times; the varied base-set sizes guarantee it.
  EXPECT_GT(*std::max_element(iteration_counts.begin(),
                              iteration_counts.end()),
            *std::min_element(iteration_counts.begin(),
                              iteration_counts.end()));
}

TEST(BatchKernelEquivalence, WarmStartedLanesAreBitIdentical) {
  BatchCase c = MakeBatchCase(/*seed=*/32, /*papers=*/450, /*lanes=*/4);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  const ObjectRankOptions options =
      FixedWorkOptions(PowerKernel::kFused, 4);

  // A dense warm start puts every lane in the block from iteration 1.
  const auto seed_run = engine.Compute(c.bases[0], c.rates, options);
  std::vector<BatchQuery> queries = QueriesOver(c.bases);
  for (BatchQuery& q : queries) q.warm_start = &seed_run.scores;

  const auto batch = engine.ComputeBatch(queries, c.rates, options);
  for (size_t i = 0; i < c.bases.size(); ++i) {
    const auto single =
        engine.Compute(c.bases[i], c.rates, options, &seed_run.scores);
    EXPECT_EQ(batch[i].iterations, single.iterations);
    ExpectBitIdentical(batch[i].scores, single.scores,
                       "warm lane " + std::to_string(i));
  }
}

TEST(BatchKernelEquivalence, MixedWarmAndColdLanesAreBitIdentical) {
  // Warm lanes join the block immediately; cold lanes push sparsely and
  // join later. Both kinds must still match their singles exactly.
  BatchCase c = MakeBatchCase(/*seed=*/33, /*papers=*/450, /*lanes=*/4);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  const ObjectRankOptions options =
      FixedWorkOptions(PowerKernel::kFused, 2);

  const auto seed_run = engine.Compute(c.bases[0], c.rates, options);
  std::vector<BatchQuery> queries = QueriesOver(c.bases);
  queries[1].warm_start = &seed_run.scores;
  queries[3].warm_start = &seed_run.scores;

  const auto batch = engine.ComputeBatch(queries, c.rates, options);
  for (size_t i = 0; i < c.bases.size(); ++i) {
    const std::vector<double>* warm =
        (i == 1 || i == 3) ? &seed_run.scores : nullptr;
    const auto single = engine.Compute(c.bases[i], c.rates, options, warm);
    EXPECT_EQ(batch[i].iterations, single.iterations);
    ExpectBitIdentical(batch[i].scores, single.scores,
                       "mixed lane " + std::to_string(i));
  }
}

TEST(BatchKernelEquivalence, BatchWideCancelStopsEveryLane) {
  BatchCase c = MakeBatchCase(/*seed=*/35, /*papers=*/400, /*lanes=*/3);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions options = FixedWorkOptions(PowerKernel::kFused, 2);
  int calls = 0;
  options.cancel = [&calls] { return ++calls > 2; };

  const auto batch =
      engine.ComputeBatch(QueriesOver(c.bases), c.rates, options);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(batch[i].cancelled) << "lane " << i;
    EXPECT_EQ(batch[i].iterations, 2) << "lane " << i;
  }
}

TEST(BatchKernelEquivalence, NonFusedKernelFallsBackPerLane) {
  // kSequentialPush has no block form; ComputeBatch must still return
  // exactly what per-lane Compute calls would.
  BatchCase c = MakeBatchCase(/*seed=*/36, /*papers=*/350, /*lanes=*/3);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  const ObjectRankOptions options =
      FixedWorkOptions(PowerKernel::kSequentialPush, 2);
  const auto batch =
      engine.ComputeBatch(QueriesOver(c.bases), c.rates, options);
  for (size_t i = 0; i < c.bases.size(); ++i) {
    const auto single = engine.Compute(c.bases[i], c.rates, options);
    EXPECT_EQ(batch[i].iterations, single.iterations);
    ExpectBitIdentical(batch[i].scores, single.scores,
                       "fallback lane " + std::to_string(i));
  }
}

TEST(BatchKernelEquivalence, EmptyBatchReturnsEmpty) {
  BatchCase c = MakeBatchCase(/*seed=*/37, /*papers=*/200, /*lanes=*/1);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  EXPECT_TRUE(engine.ComputeBatch({}, c.rates).empty());
}

// perf_smoke: with 8 warm (dense-from-start) lanes the block pass reads
// the SELL structure and fused weights once per iteration for all lanes,
// so aggregate lane-iteration throughput must clear a floor a silent
// per-lane fallback plus dispatch overhead would miss. The floor is far
// below real hardware speed so sanitizer builds still pass.
TEST(BatchKernelPerfSmoke, BatchedLanesSustainAggregateThroughputFloor) {
  BatchCase c = MakeBatchCase(/*seed=*/43, /*papers=*/2000, /*lanes=*/8);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions options = FixedWorkOptions(PowerKernel::kFused, 2);
  options.max_iterations = 10;

  const auto seed_run = engine.Compute(c.bases[0], c.rates, options);
  std::vector<BatchQuery> queries = QueriesOver(c.bases);
  for (BatchQuery& q : queries) q.warm_start = &seed_run.scores;

  engine.ComputeBatch(queries, c.rates, options);  // warm the layout
  Timer timer;
  long long lane_iterations = 0;
  while (timer.ElapsedSeconds() < 1.0) {
    for (const auto& r : engine.ComputeBatch(queries, c.rates, options)) {
      lane_iterations += r.iterations;
    }
  }
  const double edges_per_second =
      static_cast<double>(lane_iterations) *
      static_cast<double>(c.dblp.dataset.authority().num_edges()) /
      timer.ElapsedSeconds();
  EXPECT_GT(edges_per_second, 1e4);
}

}  // namespace
}  // namespace orx::core
