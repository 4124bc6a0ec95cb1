// Regenerates the binary seed corpora under fuzz/corpus/: the ORXD2
// dataset and ORXC2 rank-cache containers and the ORXN frames are opaque
// bytes, so they are produced by the real writers from the Figure 1
// dataset rather than hand-maintained. Usage:
//
//   make_fuzz_seeds <corpus-root>   # e.g. make_fuzz_seeds fuzz/corpus
//
// writes <root>/container/*.orxd2|*.orxc2, <root>/net_frame/*.bin and
// <root>/mutation/*.bin. Rerun after a format version bump and commit the
// refreshed files (the text seeds — XML, TSV, queries — are edited
// directly).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/rank_cache.h"
#include "datasets/dblp_generator.h"
#include "datasets/figure1.h"
#include "graph/transfer_rates.h"
#include "io/snapshot_io.h"
#include "net/frame.h"

namespace {

void WriteSeed(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ORX_CHECK_MSG(out.good(), "cannot open seed file");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ORX_CHECK_MSG(out.good(), "seed write failed");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);

  // Container seeds ("ORXD2"/"ORXC2"): valid containers from the Figure 1
  // dataset, so the container fuzzer's mutations start from inputs that
  // pass every structural check.
  orx::datasets::Figure1Dataset fig = orx::datasets::MakeFigure1Dataset();
  const orx::graph::TransferRates rates =
      orx::datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  orx::core::RankCache cache = orx::core::RankCache::BuildForTerms(
      fig.dataset.authority(), fig.dataset.corpus(), rates,
      {"olap", "data", "cube"}, orx::core::RankCache::Options{});
  std::filesystem::create_directories(root / "container");
  ORX_CHECK_OK(orx::io::WriteDatasetContainer(
      fig.dataset, rates, (root / "container" / "figure1.orxd2").string()));
  ORX_CHECK_OK(orx::io::WriteRankCacheContainer(
      cache, (root / "container" / "figure1.orxc2").string()));

  // Compressed rank-cache seed: a Compress() over a generated DBLP so
  // the seed actually carries quantized-tail sections (head + u16 tail +
  // drop bound), giving the fuzzer a foothold on the compressed decode
  // path (hostile quantization scales, tail-mass overflow). The Figure 1
  // graph is too small for compression to ever win — the fixed section
  // overhead exceeds the dense vectors — so this seed comes from a
  // 200-paper synthetic DBLP.
  const orx::datasets::DblpDataset gen = orx::datasets::GenerateDblp(
      orx::datasets::DblpGeneratorConfig::Tiny(200, 1));
  const orx::graph::TransferRates gen_rates =
      orx::datasets::DblpGroundTruthRates(gen.dataset.schema(), gen.types);
  std::vector<std::pair<uint32_t, std::string>> by_df;
  const orx::text::Corpus& gen_corpus = gen.dataset.corpus();
  for (orx::text::TermId t = 0; t < gen_corpus.vocab_size(); ++t) {
    if (gen_corpus.Df(t) >= 3) {
      by_df.emplace_back(gen_corpus.Df(t), gen_corpus.TermString(t));
    }
  }
  std::sort(by_df.begin(), by_df.end());
  ORX_CHECK_MSG(by_df.size() >= 3, "generated corpus has too few terms");
  const std::vector<std::string> seed_terms = {
      by_df.back().second, by_df[by_df.size() / 2].second,
      by_df.front().second};
  orx::core::RankCache compressed = orx::core::RankCache::BuildForTerms(
      gen.dataset.authority(), gen_corpus, gen_rates, seed_terms,
      orx::core::RankCache::Options{});
  orx::core::RankCache::CompressionOptions squeeze;
  squeeze.head = 2;
  squeeze.drop_threshold = 1e-3;
  squeeze.min_ratio = 1.0;
  const orx::core::RankCache::CompressionStats squeezed =
      compressed.Compress(squeeze);
  ORX_CHECK_MSG(squeezed.terms_compressed > 0,
                "compressed seed carries no compressed terms");
  ORX_CHECK_OK(orx::io::WriteRankCacheContainer(
      compressed,
      (root / "container" / "dblp_compressed.orxc2").string()));

  // ORXN wire-protocol seeds: one representative frame per op so the
  // net_frame fuzzer starts from structurally valid inputs.
  std::filesystem::create_directories(root / "net_frame");
  {
    using namespace orx::net;
    WriteSeed(root / "net_frame" / "ping.bin",
              EncodeFrame(Op::kPing, 1, std::string()));
    WriteSeed(root / "net_frame" / "search_request.bin",
              EncodeFrame(Op::kSearch, 2,
                          EncodeSearchRequest({"data cube olap", 10, 0.5})));
    // Exact-tier request: the tier byte set to its other legal value so
    // mutations explore the tier validation path (2, cached, and every
    // value above must decode as kDataLoss, not reach the handler).
    SearchRequest tiered{"data cube olap", 10, 0.5};
    tiered.tier = 1;  // exact
    WriteSeed(root / "net_frame" / "search_request_tier.bin",
              EncodeFrame(Op::kSearch, 9, EncodeSearchRequest(tiered)));
    SearchResponse search;
    search.results.push_back({42, 0.125, "paper", "Data Cube"});
    search.results.push_back({7, 0.0625, "author", "Gray"});
    search.iterations = 12;
    search.snapshot_version = 1;
    search.tier_used = 2;  // a compressed cache hit, with a live error bound
    search.error_bound = 1.5e-6;
    WriteSeed(root / "net_frame" / "search_response.bin",
              EncodeFrame(Op::kSearch, 2, EncodeSearchResponse(search)));
    WriteSeed(root / "net_frame" / "explain_request.bin",
              EncodeFrame(Op::kExplain, 3,
                          EncodeExplainRequest({"data cube", 2})));
    WriteSeed(root / "net_frame" / "reformulate_request.bin",
              EncodeFrame(Op::kReformulate, 4,
                          EncodeReformulateRequest({"data", {1, 3}})));
    ReformulateResponse reform;
    reform.reformulated_query = "data mining:0.5";
    reform.top_expansion_terms = {{"mining", 0.5}};
    WriteSeed(root / "net_frame" / "reformulate_response.bin",
              EncodeFrame(Op::kReformulate, 4,
                          EncodeReformulateResponse(reform)));
    WriteSeed(root / "net_frame" / "validate_response.bin",
              EncodeFrame(Op::kValidate, 5,
                          EncodeValidateResponse({true, "snapshot OK"})));
    MetricsResponse metrics;
    metrics.serve.submitted = 100;
    metrics.serve.completed = 99;
    metrics.serve.tier_exact = 60;
    metrics.serve.tier_cached = 39;
    metrics.serve.miss_error_budget = 4;
    metrics.serve.tier_cached_p50 = 0.002;
    metrics.frames_received = 123;
    WriteSeed(root / "net_frame" / "metrics_response.bin",
              EncodeFrame(Op::kMetrics, 6, EncodeMetricsResponse(metrics)));
    WriteSeed(root / "net_frame" / "error_response.bin",
              EncodeErrorFrame(7, orx::UnavailableError("queue full")));

    // Mutation-path seeds: the same valid batch feeds both fuzzers —
    // framed for net_frame, bare payload for the mutation harness.
    std::filesystem::create_directories(root / "mutation");
    MutateRequest mutate;
    mutate.batch.mutations.push_back(orx::mutate::Mutation::AddNode(
        fig.types.paper, {{"title", "Fuzzed Cube Paper"}}));
    mutate.batch.mutations.push_back(orx::mutate::Mutation::AddEdge(
        static_cast<orx::graph::NodeId>(fig.dataset.data().num_nodes()),
        fig.v7_data_cube, fig.types.cites));
    mutate.batch.mutations.push_back(orx::mutate::Mutation::UpdateNodeText(
        fig.v1_index_selection, {{"title", "Index Selection rev"}}));
    mutate.batch.mutations.push_back(orx::mutate::Mutation::RemoveEdge(
        fig.v4_range_queries, fig.v5_modeling, fig.types.cites));
    const std::string mutate_payload = EncodeMutateRequest(mutate);
    WriteSeed(root / "net_frame" / "mutate_request.bin",
              EncodeFrame(Op::kMutate, 8, mutate_payload));
    WriteSeed(root / "net_frame" / "mutate_response.bin",
              EncodeFrame(Op::kMutate, 8, EncodeMutateResponse({41, 3})));
    WriteSeed(root / "mutation" / "mutate_request.bin", mutate_payload);
    WriteSeed(root / "mutation" / "mutate_response.bin",
              EncodeMutateResponse({41, 3}));
  }

  std::printf("seeds written under %s\n", root.string().c_str());
  return 0;
}
