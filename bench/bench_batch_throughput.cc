// Batched power-iteration benchmark: aggregate query throughput of
// ObjectRankEngine::ComputeBatch as the batch width B grows. Every lane
// of a block pass shares one streaming read of the SELL-8 structure and
// fused weights (docs/batching.md), so B warm-started queries cost far
// less than B single solves — the headline number is the B=8 vs B=1
// queries/second speedup at 8 threads (target: >= 2x). Emits
// BENCH_batch.json in the shared bench_util record schema.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/base_set.h"
#include "core/objectrank.h"

namespace {

struct BatchRun {
  size_t lanes = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  long long queries = 0;
  long long lane_iterations = 0;
  double queries_per_second = 0.0;
  double lane_edges_per_second = 0.0;
};

// Repeats fixed-work batch solves (epsilon = 0: every lane executes
// exactly max_iterations passes) until `min_seconds` of wall time
// accrues. All lanes are warm-started with a dense vector so the whole
// batch runs the block SpMM from iteration 1 — the regime of a rank
// cache refresh, whose lanes start from their previous vectors.
BatchRun TimeBatch(const orx::core::ObjectRankEngine& engine,
                   const std::vector<orx::core::BaseSet>& bases,
                   const orx::graph::TransferRates& rates,
                   const std::vector<double>& warm, size_t lanes,
                   int threads, int iterations_per_solve,
                   double min_seconds) {
  orx::core::ObjectRankOptions options;
  options.epsilon = 0.0;
  options.max_iterations = iterations_per_solve;
  options.num_threads = threads;

  std::vector<orx::core::BatchQuery> queries(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    queries[l].base = &bases[l % bases.size()];
    queries[l].warm_start = &warm;
  }
  engine.ComputeBatch(queries, rates, options);  // warm: pool + layout

  BatchRun run;
  run.lanes = lanes;
  run.threads = threads;
  orx::Timer timer;
  while (timer.ElapsedSeconds() < min_seconds) {
    for (const auto& result : engine.ComputeBatch(queries, rates, options)) {
      run.lane_iterations += result.iterations;
      ++run.queries;
    }
  }
  run.wall_seconds = timer.ElapsedSeconds();
  return run;
}

}  // namespace

int main() {
  using namespace orx;
  const double scale = bench::ScaleFromEnv();
  const uint32_t papers =
      std::max<uint32_t>(200, static_cast<uint32_t>(32'000 * scale));
  std::printf("=== Batched power iteration: SpMM over SELL-8, aggregate "
              "queries/s by batch width (scale=%.3f) ===\n\n", scale);

  // DBLP-scale regime: ~32k papers, 5 citations each. ComputeBatch runs
  // a one-query batch through Compute, so the B=1 rows are the
  // single-vector fused kernel's throughput.
  datasets::DblpGeneratorConfig config =
      datasets::DblpGeneratorConfig::Tiny(papers, /*seed=*/77);
  config.num_authors = papers / 2 + 100;
  config.avg_citations = 5.0;
  const datasets::DblpDataset dblp = datasets::GenerateDblp(config);
  const graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const size_t nodes = dblp.dataset.data().num_nodes();
  const uint64_t edges = dblp.dataset.authority().num_edges();
  std::printf("graph: %zu nodes, %llu authority edges\n\n", nodes,
              static_cast<unsigned long long>(edges));

  // 16 distinct randomized base sets, reused round-robin across lanes so
  // every lane solves a different query.
  Rng rng(4242);
  std::vector<core::BaseSet> bases;
  for (int b = 0; b < 16; ++b) {
    core::BaseSet base;
    double total = 0.0;
    std::vector<std::pair<graph::NodeId, double>> picks;
    while (picks.size() < 12) {
      picks.emplace_back(static_cast<graph::NodeId>(rng.UniformInt(nodes)),
                         rng.UniformDouble() + 0.01);
      total += picks.back().second;
    }
    std::sort(picks.begin(), picks.end());
    for (const auto& [node, weight] : picks) {
      base.entries.emplace_back(node, weight / total);
    }
    bases.push_back(std::move(base));
  }

  core::ObjectRankEngine engine(dblp.dataset.authority());
  constexpr int kIterationsPerSolve = 20;
  const double min_seconds = std::clamp(scale, 0.02, 1.0);

  // The shared dense warm start (the global rank, as a serving session
  // would use).
  core::ObjectRankOptions warm_options;
  warm_options.num_threads = 4;
  const std::vector<double> warm =
      engine.ComputeGlobal(rates, warm_options).scores;

  // Every (B, threads) cell is measured in kRounds short slices, with
  // the whole sweep completing one round before the next begins: on a
  // shared machine, slow drift (frequency scaling, noisy neighbors)
  // then hits every cell about equally instead of whichever cell was
  // measured during the slow minutes, which is what makes the B=8 vs
  // B=1 ratio trustworthy.
  constexpr int kRounds = 3;
  std::vector<std::pair<size_t, int>> configs;
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                             size_t{16}}) {
    for (const int threads : {1, 4, 8}) configs.emplace_back(lanes, threads);
  }
  std::vector<BatchRun> runs(configs.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < configs.size(); ++i) {
      const BatchRun slice =
          TimeBatch(engine, bases, rates, warm, configs[i].first,
                    configs[i].second, kIterationsPerSolve,
                    min_seconds / kRounds);
      runs[i].lanes = slice.lanes;
      runs[i].threads = slice.threads;
      runs[i].wall_seconds += slice.wall_seconds;
      runs[i].queries += slice.queries;
      runs[i].lane_iterations += slice.lane_iterations;
    }
  }
  TablePrinter table({"B", "threads", "queries", "wall (s)", "queries/s",
                      "lane Medges/s"});
  for (BatchRun& run : runs) {
    run.queries_per_second =
        static_cast<double>(run.queries) / run.wall_seconds;
    run.lane_edges_per_second =
        static_cast<double>(run.lane_iterations) *
        static_cast<double>(engine.graph().num_edges()) / run.wall_seconds;
    table.AddRow({std::to_string(run.lanes), std::to_string(run.threads),
                  std::to_string(run.queries),
                  FormatDouble(run.wall_seconds, 2),
                  FormatDouble(run.queries_per_second, 1),
                  FormatDouble(run.lane_edges_per_second / 1e6, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());

  auto at = [&](size_t lanes, int threads) -> const BatchRun& {
    for (const BatchRun& r : runs) {
      if (r.lanes == lanes && r.threads == threads) return r;
    }
    return runs.front();
  };
  const double speedup_8t =
      at(8, 8).queries_per_second / at(1, 8).queries_per_second;
  const double speedup_1t =
      at(8, 1).queries_per_second / at(1, 1).queries_per_second;
  std::printf("B=8 vs B=1 aggregate queries/s: %.2fx at 1 thread, %.2fx "
              "at 8 threads (target: >= 2x at 8 threads)\n",
              speedup_1t, speedup_8t);

  double total_wall = 0.0;
  std::vector<std::string> rendered;
  for (const BatchRun& run : runs) {
    total_wall += run.wall_seconds;
    bench::JsonObject record;
    record.Add("batch_size", run.lanes)
        .Add("threads", run.threads)
        .Add("queries", run.queries)
        .Add("wall_seconds", run.wall_seconds)
        .Add("queries_per_second", run.queries_per_second)
        .Add("lane_edges_per_second", run.lane_edges_per_second);
    rendered.push_back(record.ToString());
  }
  bench::JsonObject json = bench::BenchRecord(
      "batch",
      bench::BenchDataset{"dblp-synthetic", nodes,
                          static_cast<size_t>(edges)},
      /*threads=*/8, total_wall);
  json.Add("papers", static_cast<unsigned long long>(papers))
      .Add("iterations_per_solve", kIterationsPerSolve)
      .Add("speedup_b8_1t", speedup_1t)
      .Add("speedup_b8_8t", speedup_8t)
      .AddRaw("runs", bench::JsonArray(rendered));
  bench::WriteJsonFile("BENCH_batch.json", json.ToString());
  return 0;
}
