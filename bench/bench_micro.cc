// Micro-benchmarks (google-benchmark) of ORX's building blocks: the power
// iteration inner loop, index construction, BM25 base-set scoring,
// explaining-subgraph construction, top-k selection, the generators and
// one served result-cache hit.
// Results also land in BENCH_micro.json (same record schema as the other
// bench binaries) so runs are diffable across revisions.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/searcher.h"
#include "dataset_spec.h"
#include "explain/explainer.h"
#include "net/frame.h"
#include "net/serve_handler.h"
#include "serve/search_service.h"
#include "text/query.h"

namespace {

using namespace orx;

const datasets::DblpDataset& BenchDblp() {
  static const datasets::DblpDataset& dblp = *new datasets::DblpDataset(
      datasets::GenerateDblp(
          datasets::DblpGeneratorConfig::Tiny(/*papers=*/20'000,
                                              /*seed=*/99)));
  return dblp;
}

void BM_PowerIteration(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  core::ObjectRankEngine engine(dblp.dataset.authority());
  text::QueryVector q(text::ParseQuery("data"));
  auto base = *core::BuildBaseSet(dblp.dataset.corpus(), q);
  core::ObjectRankOptions options;
  options.epsilon = 0.0;  // fixed work per run
  options.max_iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = engine.Compute(base, rates, options);
    benchmark::DoNotOptimize(result.scores.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          dblp.dataset.authority().num_edges());
}
BENCHMARK(BM_PowerIteration)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_BuildAuthorityGraph(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  for (auto _ : state) {
    auto graph = graph::AuthorityGraph::Build(dblp.dataset.data());
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          dblp.dataset.data().num_edges());
}
BENCHMARK(BM_BuildAuthorityGraph)->Unit(benchmark::kMillisecond);

void BM_BuildCorpus(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  for (auto _ : state) {
    auto corpus = text::Corpus::Build(dblp.dataset.data());
    benchmark::DoNotOptimize(corpus.vocab_size());
  }
  state.SetItemsProcessed(state.iterations() *
                          dblp.dataset.data().num_nodes());
}
BENCHMARK(BM_BuildCorpus)->Unit(benchmark::kMillisecond);

void BM_ScoreBaseSet(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  text::QueryVector q(text::ParseQuery("data query systems"));
  for (auto _ : state) {
    auto scored = text::ScoreBaseSet(dblp.dataset.corpus(), q);
    benchmark::DoNotOptimize(scored.size());
  }
}
BENCHMARK(BM_ScoreBaseSet)->Unit(benchmark::kMicrosecond);

void BM_ExplainTopResult(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  core::ObjectRankEngine engine(dblp.dataset.authority());
  text::QueryVector q(text::ParseQuery("mining"));
  auto base = *core::BuildBaseSet(dblp.dataset.corpus(), q);
  auto rank = engine.Compute(base, rates, {});
  auto top = core::TopKOfType(rank.scores, 1, dblp.dataset.data(),
                              dblp.types.paper);
  explain::Explainer explainer(dblp.dataset.data(),
                               dblp.dataset.authority());
  explain::ExplainOptions options;
  options.radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto explanation = explainer.Explain(top[0].node, base, rank.scores,
                                         rates, 0.85, options);
    benchmark::DoNotOptimize(explanation.ok());
  }
}
BENCHMARK(BM_ExplainTopResult)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_TopK(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  std::vector<double> scores(dblp.dataset.data().num_nodes());
  Rng rng(5);
  for (double& s : scores) s = rng.UniformDouble();
  for (auto _ : state) {
    auto top = core::TopKOfType(scores, static_cast<size_t>(state.range(0)),
                                dblp.dataset.data(), dblp.types.paper);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_GenerateDblp(benchmark::State& state) {
  for (auto _ : state) {
    auto dblp = datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(
        static_cast<uint32_t>(state.range(0)), 7));
    benchmark::DoNotOptimize(dblp.dataset.data().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateDblp)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Reformulate(benchmark::State& state) {
  const auto& dblp = BenchDblp();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  core::ObjectRankEngine engine(dblp.dataset.authority());
  text::QueryVector q(text::ParseQuery("xml"));
  auto base = *core::BuildBaseSet(dblp.dataset.corpus(), q);
  auto rank = engine.Compute(base, rates, {});
  auto top = core::TopKOfType(rank.scores, 2, dblp.dataset.data(),
                              dblp.types.paper);
  std::vector<graph::NodeId> feedback;
  for (const auto& r : top) feedback.push_back(r.node);
  reform::Reformulator reformulator(dblp.dataset.data(),
                                    dblp.dataset.authority(),
                                    dblp.dataset.corpus());
  for (auto _ : state) {
    auto result = reformulator.Reformulate(q, rates, base, rank.scores,
                                           feedback, {});
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_Reformulate)->Unit(benchmark::kMillisecond);

/// Decodes a kSearch payload into the service request, as
/// net::ServeHandler::HandleSearch does on a loop thread.
serve::ServeRequest DecodeServeRequest(const std::string& payload) {
  auto request = net::DecodeSearchRequest(payload);
  ORX_CHECK(request.ok());
  serve::ServeRequest serve_request;
  serve_request.query = text::QueryVector(text::ParseQuery(request->query));
  serve_request.k = request->k;
  serve_request.deadline_seconds = request->deadline_seconds;
  serve_request.tier = static_cast<core::SearchTier>(request->tier);
  return serve_request;
}

/// One cached kSearch on orx_serve --scale 1's dataset, cycling over the
/// 64 head-term queries after warming each once: decode, parse, submit,
/// and encode the response frame, the work search_hot's >= 99% hits put
/// on a loop thread, without the socket. A hit answers inside
/// SubmitAsync on the calling thread.
void BM_ServeCacheHit(benchmark::State& state) {
  static const tools::ServingDataset& dataset =
      *new tools::ServingDataset(tools::BuildServingDataset(1.0));
  // Outlives the service, whose destructor drains any execution that
  // could still call back into it.
  std::string frame;
  serve::SearchService service(dataset.snapshot,
                               serve::SearchService::Options{});
  std::vector<std::string> payloads;
  for (const std::string& term : dataset.head_terms) {
    net::SearchRequest request;
    request.query = term;
    payloads.push_back(net::EncodeSearchRequest(request));
    ORX_CHECK(service.Search(DecodeServeRequest(payloads.back())).ok());
  }
  const uint64_t executed = service.Snapshot().executed;
  size_t next = 0;
  for (auto _ : state) {
    service.SubmitAsync(
        DecodeServeRequest(payloads[next]),
        [&frame](StatusOr<serve::ServeResponse> response) {
          ORX_CHECK(response.ok());
          frame = net::EncodeFrame(
              net::Op::kSearch, 1,
              net::EncodeSearchResponse(net::ToWire(*response)));
        });
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    if (++next == payloads.size()) next = 0;
  }
  if (service.Snapshot().executed != executed) {
    state.SkipWithError("a timed search missed the result cache");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheHit)->Unit(benchmark::kMicrosecond);

/// The console reporter, plus a JSON record per reported run so main()
/// can emit BENCH_micro.json without re-running anything.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // GetAdjusted*Time() report per-iteration time in the benchmark's
      // display unit; normalize to seconds for the artifact.
      const double unit = benchmark::GetTimeUnitMultiplier(run.time_unit);
      bench::JsonObject record;
      record.Add("name", run.benchmark_name())
          .Add("iterations", static_cast<long long>(run.iterations))
          .Add("real_time_seconds", run.GetAdjustedRealTime() / unit)
          .Add("cpu_time_seconds", run.GetAdjustedCPUTime() / unit);
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        record.Add("items_per_second", static_cast<double>(it->second));
      }
      rendered_.push_back(record.ToString());
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<std::string>& rendered() const { return rendered_; }

 private:
  std::vector<std::string> rendered_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  Timer timer;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Micro benchmarks sweep many generated graphs; nodes/edges stay 0
  // ("not applicable") in the shared header.
  bench::JsonObject json = bench::BenchRecord(
      "micro", bench::BenchDataset{"dblp-synthetic"}, /*threads=*/1,
      timer.ElapsedSeconds());
  json.AddRaw("benchmarks", bench::JsonArray(reporter.rendered()));
  bench::WriteJsonFile("BENCH_micro.json", json.ToString());
  return 0;
}
