// Equivalence and regression suite for the fused SpMV power-iteration
// kernel (docs/power_iteration.md): the fused kernel at several thread
// counts must agree with the sequential-push reference to <= 1e-12 L-inf
// on randomized graphs, base sets, and transfer rates;
// the fused-weight cache must never serve weights for stale rates; and
// the perf_smoke throughput sanity keeps the kernel plumbing honest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/objectrank.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_schema.h"
#include "graph/spmv_layout.h"

namespace orx::core {
namespace {

constexpr double kLInfTolerance = 1e-12;

double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::fabs(a[i] - b[i]));
  }
  return max;
}

// A synthetic DBLP graph plus randomized rates and base set for one seed.
struct RandomCase {
  datasets::DblpDataset dblp;
  graph::TransferRates rates;
  BaseSet base;
};

RandomCase MakeRandomCase(uint64_t seed, uint32_t papers,
                          size_t base_nodes) {
  RandomCase c{datasets::GenerateDblp(
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
  std::vector<graph::NodeId> nodes;
  while (nodes.size() < std::min(base_nodes, n)) {
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(n));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  double total = 0.0;
  std::vector<double> weights;
  for (size_t i = 0; i < nodes.size(); ++i) {
    weights.push_back(rng.UniformDouble() + 0.01);
    total += weights.back();
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    c.base.entries.emplace_back(nodes[i], weights[i] / total);
  }
  return c;
}

ObjectRankOptions FixedWorkOptions(PowerKernel kernel, int threads) {
  ObjectRankOptions options;
  options.epsilon = 0.0;  // run exactly max_iterations in every kernel
  options.max_iterations = 25;
  options.kernel = kernel;
  options.num_threads = threads;
  return options;
}

TEST(SpmvKernelEquivalence, AllKernelsAgreeOnRandomizedInputs) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RandomCase c = MakeRandomCase(seed, /*papers=*/400 + 150 * seed,
                                  /*base_nodes=*/12);
    ObjectRankEngine engine(c.dblp.dataset.authority());

    const auto reference =
        engine.Compute(c.base, c.rates,
                       FixedWorkOptions(PowerKernel::kSequentialPush, 1));
    ASSERT_EQ(reference.iterations, 25);

    for (const int threads : {1, 2, 4, 8}) {
      const auto fused = engine.Compute(
          c.base, c.rates, FixedWorkOptions(PowerKernel::kFused, threads));
      EXPECT_LE(LInfDistance(reference.scores, fused.scores),
                kLInfTolerance)
          << "fused kernel diverged from sequential push at " << threads
          << " threads (seed " << seed << ")";
    }
  }
}

TEST(SpmvKernelEquivalence, WarmStartedKernelsAgree) {
  RandomCase c = MakeRandomCase(11, /*papers=*/500, /*base_nodes=*/8);
  ObjectRankEngine engine(c.dblp.dataset.authority());

  // A dense warm start drives the fused kernel straight into the pull
  // SpMV; the reference must still match.
  const auto seed_run = engine.Compute(
      c.base, c.rates, FixedWorkOptions(PowerKernel::kSequentialPush, 1));
  const auto reference = engine.Compute(
      c.base, c.rates, FixedWorkOptions(PowerKernel::kSequentialPush, 1),
      &seed_run.scores);
  const auto fused =
      engine.Compute(c.base, c.rates,
                     FixedWorkOptions(PowerKernel::kFused, 4),
                     &seed_run.scores);
  EXPECT_LE(LInfDistance(reference.scores, fused.scores), kLInfTolerance);
}

TEST(SpmvKernelEquivalence, ConvergedRunsAgreeLoosely) {
  // With a real epsilon the kernels may stop one iteration apart, so the
  // comparison is only as tight as the convergence threshold.
  RandomCase c = MakeRandomCase(5, /*papers=*/400, /*base_nodes=*/10);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions push;
  push.epsilon = 1e-10;
  push.kernel = PowerKernel::kSequentialPush;
  ObjectRankOptions fused = push;
  fused.kernel = PowerKernel::kFused;
  fused.num_threads = 4;

  const auto a = engine.Compute(c.base, c.rates, push);
  const auto b = engine.Compute(c.base, c.rates, fused);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LE(LInfDistance(a.scores, b.scores), 1e-8);
}

// ComputeGlobal (uniform all-nodes base set) starts fully dense, so the
// fused kernel takes the pull path from iteration 1 — a code path the
// sparse-start tests above never pin down globally. Every thread count
// must agree with the reference on it.
TEST(SpmvKernelEquivalence, ComputeGlobalAgreesAcrossKernelsAndThreads) {
  RandomCase c = MakeRandomCase(12, /*papers=*/450, /*base_nodes=*/4);
  ObjectRankEngine engine(c.dblp.dataset.authority());

  const auto reference = engine.ComputeGlobal(
      c.rates, FixedWorkOptions(PowerKernel::kSequentialPush, 1));
  ASSERT_EQ(reference.iterations, 25);
  ASSERT_EQ(reference.scores.size(),
            c.dblp.dataset.authority().num_nodes());

  for (const int threads : {1, 2, 4, 8}) {
    const auto fused = engine.ComputeGlobal(
        c.rates, FixedWorkOptions(PowerKernel::kFused, threads));
    EXPECT_LE(LInfDistance(reference.scores, fused.scores), kLInfTolerance)
        << "fused global rank diverged at " << threads << " threads";
  }
}

TEST(SpmvKernelEquivalence, CancellationStopsFusedKernel) {
  RandomCase c = MakeRandomCase(4, /*papers=*/400, /*base_nodes=*/6);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions options = FixedWorkOptions(PowerKernel::kFused, 4);
  int calls = 0;
  options.cancel = [&calls] { return ++calls > 3; };
  const auto result = engine.Compute(c.base, c.rates, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.iterations, 3);
}

// A TransferRates change must never be served from a stale fused layout:
// results under rates B (after computing under rates A on the same
// engine) must match a fresh engine that only ever saw B.
TEST(FusedWeightCacheTest, RatesChangeInvalidatesFusedWeights) {
  RandomCase c = MakeRandomCase(6, /*papers=*/400, /*base_nodes=*/10);
  graph::TransferRates rates_b =
      datasets::DblpGroundTruthRates(c.dblp.dataset.schema(), c.dblp.types);
  const ObjectRankOptions options = FixedWorkOptions(PowerKernel::kFused, 2);

  ObjectRankEngine shared_engine(c.dblp.dataset.authority());
  const auto under_a = shared_engine.Compute(c.base, c.rates, options);
  const auto under_b = shared_engine.Compute(c.base, rates_b, options);

  ObjectRankEngine fresh_engine(c.dblp.dataset.authority());
  const auto fresh_b = fresh_engine.Compute(c.base, rates_b, options);
  EXPECT_EQ(LInfDistance(under_b.scores, fresh_b.scores), 0.0)
      << "stale fused weights served after a rates change";
  EXPECT_GT(LInfDistance(under_a.scores, under_b.scores), 0.0)
      << "distinct rates should rank differently";
}

TEST(FusedWeightCacheTest, MemoizesPerFingerprintAndSharesSources) {
  RandomCase c = MakeRandomCase(7, /*papers=*/300, /*base_nodes=*/4);
  const graph::AuthorityGraph& graph = c.dblp.dataset.authority();
  graph::TransferRates rates_b =
      datasets::DblpGroundTruthRates(c.dblp.dataset.schema(), c.dblp.types);

  graph::FusedWeightCache cache;
  const auto a1 = cache.Get(graph, c.rates);
  const auto a2 = cache.Get(graph, c.rates);
  EXPECT_EQ(a1.get(), a2.get()) << "same fingerprint must be memoized";
  EXPECT_EQ(cache.size(), 1u);

  const auto b = cache.Get(graph, rates_b);
  EXPECT_NE(a1.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a1->rates_fingerprint(), b->rates_fingerprint());
  // The SELL structure is graph-only and shared across rate vectors.
  EXPECT_EQ(a1->shared_structure().get(), b->shared_structure().get());

  // Weights really are alpha * inv_out_deg for their own rates: check the
  // first row's slots against its node's in-edges, then the whole array
  // by mass (padding slots are exactly 0.0, so the sums match).
  const graph::SellStructure& sell = b->structure();
  const auto offsets = graph.in_offsets();
  const auto in_edges = graph.in_edges();
  const uint32_t v = sell.row_order[0];
  const uint64_t deg = offsets[v + 1] - offsets[v];
  ASSERT_GT(deg, 0u);
  for (const uint64_t j : {uint64_t{0}, deg - 1}) {
    EXPECT_DOUBLE_EQ(
        b->weights()[j * graph::SellStructure::kChunkRows],
        graph::AuthorityGraph::EdgeRate(in_edges[offsets[v] + j], rates_b));
  }
  double sell_mass = 0.0;
  for (uint64_t i = 0; i < sell.padded_slots(); ++i) {
    sell_mass += b->weights()[i];
  }
  double edge_mass = 0.0;
  for (const graph::AuthorityEdge& e : in_edges) {
    edge_mass += graph::AuthorityGraph::EdgeRate(e, rates_b);
  }
  EXPECT_NEAR(sell_mass, edge_mass, 1e-9 * edge_mass);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FusedWeightCacheTest, EvictsLeastRecentlyUsedLayout) {
  RandomCase c = MakeRandomCase(8, /*papers=*/300, /*base_nodes=*/4);
  const graph::AuthorityGraph& graph = c.dblp.dataset.authority();
  graph::FusedWeightCache cache;
  for (uint32_t round = 0; round < 2 * graph::FusedWeightCache::kMaxLayouts;
       ++round) {
    graph::TransferRates rates(c.dblp.dataset.schema(),
                               0.01 + 0.02 * round);
    cache.Get(graph, rates);
  }
  EXPECT_EQ(cache.size(), graph::FusedWeightCache::kMaxLayouts);
}

TEST(BalancedPartitionTest, CoversRangeAndBalancesEdges) {
  RandomCase c = MakeRandomCase(9, /*papers=*/600, /*base_nodes=*/4);
  const graph::AuthorityGraph& graph = c.dblp.dataset.authority();
  const auto offsets = graph.in_offsets();
  const size_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();

  for (const size_t parts : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    const auto bounds = graph::BalancedPartition(offsets, parts);
    ASSERT_EQ(bounds.size(), parts + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), n);
    uint64_t max_part = 0;
    for (size_t t = 0; t < parts; ++t) {
      ASSERT_LE(bounds[t], bounds[t + 1]);
      max_part = std::max(max_part,
                          offsets[bounds[t + 1]] - offsets[bounds[t]]);
    }
    // Each part carries at most an even share plus one node's edges.
    uint64_t max_degree = 0;
    for (size_t v = 0; v < n; ++v) {
      max_degree = std::max(max_degree, offsets[v + 1] - offsets[v]);
    }
    EXPECT_LE(max_part, m / parts + max_degree);
  }
}

// perf_smoke: the fused kernel must sustain a (deliberately modest)
// throughput floor so the perf plumbing cannot silently rot — a broken
// dispatch path or accidental per-iteration rebuild shows up here long
// before a real benchmark runs. The floor is far below real hardware
// speed so sanitizer builds still pass.
TEST(SpmvKernelPerfSmoke, FusedKernelSustainsThroughputFloor) {
  RandomCase c = MakeRandomCase(10, /*papers=*/2000, /*base_nodes=*/16);
  ObjectRankEngine engine(c.dblp.dataset.authority());
  ObjectRankOptions options = FixedWorkOptions(PowerKernel::kFused, 2);
  options.max_iterations = 10;

  // Warm the fused layout, then time roughly a second of iterations.
  engine.Compute(c.base, c.rates, options);
  Timer timer;
  long long iterations = 0;
  while (timer.ElapsedSeconds() < 1.0) {
    iterations += engine.Compute(c.base, c.rates, options).iterations;
  }
  const double edges_per_second =
      static_cast<double>(iterations) *
      static_cast<double>(c.dblp.dataset.authority().num_edges()) /
      timer.ElapsedSeconds();
  EXPECT_GT(edges_per_second, 1e4);
}

}  // namespace
}  // namespace orx::core
