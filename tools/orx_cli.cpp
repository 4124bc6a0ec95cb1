// orx_cli — interactive shell over the ORX library: generate/load/parse a
// dataset, run authority-flow queries, explain results, give relevance
// feedback, and watch the query vector and transfer rates evolve. Also
// usable non-interactively: `echo "figure1\nquery olap\nexplain 1" | orx_cli`.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/rank_cache.h"
#include "core/searcher.h"
#include "datasets/bio_generator.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_xml.h"
#include "datasets/figure1.h"
#include "explain/explainer.h"
#include "graph/validate.h"
#include "io/container.h"
#include "io/graph_tsv.h"
#include "io/snapshot_io.h"
#include "reformulate/reformulator.h"
#include "text/query.h"

namespace {

using namespace orx;

constexpr const char* kHelp = R"(commands:
  figure1                     load the paper's Figure 1 example graph
  generate dblp <papers>      generate a synthetic DBLP dataset
  generate bio <pubs>         generate a synthetic biological dataset
  parse <dblp.xml>            shred a DBLP XML file into a dataset
  load <f.orxd2>              attach a dataset container written by
                              'pack' (deep-validated, as orx_serve does;
                              adopts the rates packed with it)
  load-tsv <f> | save-tsv <f> human-editable TSV persistence
  dot <rank> [file]           Graphviz export of a result's explanation
  info                        dataset statistics
  rates gt | uniform [v] | show   set/show authority transfer rates
  filter <TypeLabel> | off    restrict results to one node type
  k <n>                       result-list size (default 10)
  precompute [threads [max-terms]]  build + attach per-keyword rank cache
  precompute off              detach the rank cache
  pack <f.orxd2> [f.orxc2]    write the dataset (and attached rank cache)
                              as zero-copy mmap containers (orx_serve
                              --dataset / --rank-cache attach them)
  validate [file]             deep structural check of an .orxd2 dataset
                              or .orxc2 rank cache container (no file:
                              current dataset)
  query <keywords...>         run ObjectRank2
  explain <rank>              explaining subgraph of a result
  feedback <rank> [rank...]   reformulate from relevant results
  show query                  current (possibly reformulated) query vector
  help | quit
)";

struct CliState {
  /// Owned by the shell for generated/parsed datasets, or aliasing the
  /// mapping of a loaded ORXD2 container.
  std::shared_ptr<const datasets::Dataset> dataset;
  std::optional<datasets::DblpTypes> dblp_types;
  std::optional<datasets::BioTypes> bio_types;
  std::unique_ptr<core::Searcher> searcher;
  std::unique_ptr<core::RankCache> rank_cache;
  graph::TransferRates rates;
  text::QueryVector query;
  core::SearchOptions search_options;
  std::vector<core::ScoredNode> last_top;
  std::vector<double> last_scores;
  bool have_result = false;

  void AdoptDataset(datasets::Dataset owned) {
    if (!owned.finalized()) owned.Finalize();
    AdoptDataset(std::make_shared<const datasets::Dataset>(std::move(owned)));
  }

  void AdoptDataset(std::shared_ptr<const datasets::Dataset> adopted) {
    // The searcher and the rank cache index the outgoing dataset.
    searcher.reset();
    rank_cache.reset();
    dataset = std::move(adopted);
    dblp_types.reset();
    bio_types.reset();
    if (auto t = datasets::DblpTypesFromSchema(dataset->schema()); t.ok()) {
      dblp_types = *t;
    } else if (auto b = datasets::BioTypesFromSchema(dataset->schema());
               b.ok()) {
      bio_types = *b;
    }
    searcher = std::make_unique<core::Searcher>(
        dataset->data(), dataset->authority(), dataset->corpus());
    SetGroundTruthRates();
    search_options = core::SearchOptions{};
    last_top.clear();
    have_result = false;
    std::printf("dataset '%s': %zu nodes, %zu edges\n",
                dataset->name().c_str(), dataset->data().num_nodes(),
                dataset->data().num_edges());
  }

  void SetGroundTruthRates() {
    if (dblp_types.has_value()) {
      rates = datasets::DblpGroundTruthRates(dataset->schema(), *dblp_types);
    } else if (bio_types.has_value()) {
      rates = datasets::BioGroundTruthRates(dataset->schema(), *bio_types);
    } else {
      rates = graph::TransferRates(dataset->schema(), 0.3);
      rates.CapOutgoingSums(dataset->schema());
    }
  }

  bool Ready() const {
    if (dataset == nullptr) {
      std::printf("no dataset loaded; try 'figure1' or 'generate dblp "
                  "2000'\n");
      return false;
    }
    return true;
  }
};

void PrintTop(const CliState& state) {
  const graph::DataGraph& data = state.dataset->data();
  int rank = 1;
  for (const core::ScoredNode& r : state.last_top) {
    std::printf("%3d. [%.5f] %-14s %.80s\n", rank++, r.score,
                data.schema().NodeTypeLabel(data.NodeType(r.node)).c_str(),
                data.DisplayLabel(r.node).c_str());
  }
}

void DoQuery(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  text::QueryVector query(text::ParseQuery(args));
  if (query.empty()) {
    std::printf("usage: query <keywords...>\n");
    return;
  }
  state.query = std::move(query);
  auto result = state.searcher->Search(state.query, state.rates,
                                       state.search_options);
  if (!result.ok()) {
    std::printf("search failed: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("base set %zu, %d iterations, %.1f ms%s\n",
              result->base_set_size, result->iterations,
              result->seconds * 1e3,
              result->tier_used == core::SearchTier::kCached
                  ? " (rank cache)"
                  : "");
  state.last_top = result->top;
  state.last_scores = std::move(result->scores);
  state.have_result = true;
  PrintTop(state);
}

graph::NodeId ResolveRank(const CliState& state, const std::string& token) {
  int rank = std::atoi(token.c_str());
  if (rank < 1 || static_cast<size_t>(rank) > state.last_top.size()) {
    return graph::kInvalidNodeId;
  }
  return state.last_top[static_cast<size_t>(rank) - 1].node;
}

void DoExplain(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  if (!state.have_result) {
    std::printf("run a query first\n");
    return;
  }
  const graph::NodeId target = ResolveRank(state, args);
  if (target == graph::kInvalidNodeId) {
    std::printf("usage: explain <rank 1..%zu>\n", state.last_top.size());
    return;
  }
  auto base = core::BuildBaseSet(state.dataset->corpus(), state.query,
                                 core::BaseSetMode::kIrWeighted,
                                 state.search_options.bm25);
  if (!base.ok()) {
    std::printf("%s\n", base.status().ToString().c_str());
    return;
  }
  explain::Explainer explainer(state.dataset->data(),
                               state.dataset->authority());
  auto explanation = explainer.Explain(
      target, *base, state.last_scores, state.rates,
      state.search_options.objectrank.damping, explain::ExplainOptions{});
  if (!explanation.ok()) {
    std::printf("explain failed: %s\n",
                explanation.status().ToString().c_str());
    return;
  }
  std::printf("%s", explanation->subgraph.ToString(state.dataset->data())
                        .c_str());
  std::printf("(%d explaining fixpoint iterations, %.1f + %.1f ms)\n",
              explanation->iterations,
              explanation->construction_seconds * 1e3,
              explanation->adjustment_seconds * 1e3);
}

void DoDot(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  if (!state.have_result) {
    std::printf("run a query first\n");
    return;
  }
  auto tokens = SplitWhitespace(args);
  if (tokens.empty()) {
    std::printf("usage: dot <rank> [file.dot]\n");
    return;
  }
  const graph::NodeId target = ResolveRank(state, tokens[0]);
  if (target == graph::kInvalidNodeId) {
    std::printf("usage: dot <rank 1..%zu> [file.dot]\n",
                state.last_top.size());
    return;
  }
  auto base = core::BuildBaseSet(state.dataset->corpus(), state.query,
                                 core::BaseSetMode::kIrWeighted,
                                 state.search_options.bm25);
  if (!base.ok()) {
    std::printf("%s\n", base.status().ToString().c_str());
    return;
  }
  explain::Explainer explainer(state.dataset->data(),
                               state.dataset->authority());
  auto explanation = explainer.Explain(
      target, *base, state.last_scores, state.rates,
      state.search_options.objectrank.damping, explain::ExplainOptions{});
  if (!explanation.ok()) {
    std::printf("explain failed: %s\n",
                explanation.status().ToString().c_str());
    return;
  }
  const std::string dot =
      explanation->subgraph.ToDot(state.dataset->data());
  if (tokens.size() > 1) {
    std::ofstream out(tokens[1]);
    out << dot;
    std::printf(out ? "wrote %s\n" : "cannot write %s\n",
                tokens[1].c_str());
  } else {
    std::printf("%s", dot.c_str());
  }
}

void DoFeedback(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  if (!state.have_result) {
    std::printf("run a query first\n");
    return;
  }
  std::vector<graph::NodeId> feedback;
  for (const std::string& token : SplitWhitespace(args)) {
    const graph::NodeId node = ResolveRank(state, token);
    if (node == graph::kInvalidNodeId) {
      std::printf("bad rank '%s'\n", token.c_str());
      return;
    }
    feedback.push_back(node);
  }
  if (feedback.empty()) {
    std::printf("usage: feedback <rank> [rank...]\n");
    return;
  }
  auto base = core::BuildBaseSet(state.dataset->corpus(), state.query,
                                 core::BaseSetMode::kIrWeighted,
                                 state.search_options.bm25);
  if (!base.ok()) {
    std::printf("%s\n", base.status().ToString().c_str());
    return;
  }
  reform::Reformulator reformulator(state.dataset->data(),
                                    state.dataset->authority(),
                                    state.dataset->corpus());
  auto result = reformulator.Reformulate(state.query, state.rates, *base,
                                         state.last_scores, feedback,
                                         reform::ReformulationOptions{});
  if (!result.ok()) {
    std::printf("reformulation failed: %s\n",
                result.status().ToString().c_str());
    return;
  }
  state.query = result->query;
  state.rates = result->rates;
  std::printf("query  -> %s\n", state.query.ToString().c_str());
  std::printf("rates  -> %s\n",
              state.rates.ToString(state.dataset->schema()).c_str());
  std::printf("rerunning...\n");
  auto rerun = state.searcher->Search(state.query, state.rates,
                                      state.search_options);
  if (rerun.ok()) {
    state.last_top = rerun->top;
    state.last_scores = std::move(rerun->scores);
    PrintTop(state);
  }
}

void DoRates(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  auto tokens = SplitWhitespace(args);
  if (tokens.empty() || tokens[0] == "show") {
    std::printf("%s\n", state.rates.ToString(state.dataset->schema())
                            .c_str());
    return;
  }
  if (tokens[0] == "gt") {
    state.SetGroundTruthRates();
  } else if (tokens[0] == "uniform") {
    const double value = tokens.size() > 1 ? std::atof(tokens[1].c_str())
                                           : 0.3;
    if (value < 0.0 || value > 1.0) {
      std::printf("rate must be in [0,1]\n");
      return;
    }
    state.rates = graph::TransferRates(state.dataset->schema(), value);
    state.rates.CapOutgoingSums(state.dataset->schema());
  } else {
    std::printf("usage: rates gt | uniform [v] | show\n");
    return;
  }
  std::printf("%s\n", state.rates.ToString(state.dataset->schema()).c_str());
}

void DoFilter(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  const std::string label(StripWhitespace(args));
  if (label == "off" || label.empty()) {
    state.search_options.result_type.reset();
    std::printf("filter off\n");
    return;
  }
  auto type = state.dataset->schema().NodeTypeByLabel(label);
  if (!type.ok()) {
    std::printf("%s\n", type.status().ToString().c_str());
    return;
  }
  state.search_options.result_type = *type;
  std::printf("filter: %s\n", label.c_str());
}

void DoPrecompute(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  auto tokens = SplitWhitespace(args);
  if (!tokens.empty() && tokens[0] == "off") {
    state.searcher->AttachRankCache(nullptr);
    state.rank_cache.reset();
    std::printf("rank cache detached\n");
    return;
  }
  int threads = static_cast<int>(ThreadPool::HardwareThreads());
  if (!tokens.empty()) {
    threads = std::atoi(tokens[0].c_str());
    if (threads < 1) {
      std::printf("usage: precompute [threads [max-terms]] | precompute "
                  "off\n");
      return;
    }
  }
  core::RankCache::Options options;
  options.objectrank = state.search_options.objectrank;
  options.bm25 = state.search_options.bm25;
  options.build_threads = threads;
  if (tokens.size() > 1) {
    const int max_terms = std::atoi(tokens[1].c_str());
    if (max_terms < 1) {
      std::printf("usage: precompute [threads [max-terms]] | precompute "
                  "off\n");
      return;
    }
    options.max_terms = static_cast<size_t>(max_terms);
  }
  core::RankCache::BuildStats stats;
  state.rank_cache = std::make_unique<core::RankCache>(core::RankCache::Build(
      state.dataset->authority(), state.dataset->corpus(), state.rates,
      options, &stats));
  state.searcher->AttachRankCache(state.rank_cache.get());
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("cache: %zu terms, %.1f MB; attached (queries under the "
              "current rates + BM25 params are served from it)\n",
              state.rank_cache->num_terms(),
              state.rank_cache->MemoryFootprintBytes() / (1024.0 * 1024.0));
}

// Runs the full graph-side validator stack on an in-memory dataset:
// authority CSR (bounded by the schema's rate slots), the SELL-8
// restructuring of its in-adjacency, and a fused layout materialized
// under the current rates. Returns the first violation.
Status ValidateDataset(const datasets::Dataset& dataset,
                       const graph::TransferRates& rates) {
  ORX_RETURN_IF_ERROR(graph::ValidateInvariants(
      dataset.authority(), dataset.schema().num_rate_slots()));
  graph::FusedLayout layout(dataset.authority(), rates);
  ORX_RETURN_IF_ERROR(graph::ValidateInvariants(layout));
  return Status::OK();
}

void DoValidate(CliState& state, const std::string& args) {
  const std::string path(orx::StripWhitespace(args));
  if (path.empty()) {
    if (!state.Ready()) return;
    Status status = ValidateDataset(*state.dataset, state.rates);
    std::printf("%s\n", status.ok() ? "dataset OK" : status.ToString().c_str());
    return;
  }
  // Dispatch on the container magic; a shorter file matches neither.
  char magic[8] = {};
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::printf("cannot read %s\n", path.c_str());
      return;
    }
    in.read(magic, 8);
  }
  if (std::equal(magic, magic + 8, orx::io::kDatasetMagic)) {
    // Deep validation is the point here: hashes over every section,
    // per-edge schema conformance, CSR/SELL cross-checks, corpus bounds.
    auto mapped = orx::io::OpenMappedDataset(path);
    if (!mapped.ok()) {
      std::printf("%s\n", mapped.status().ToString().c_str());
      return;
    }
    std::printf("mmap dataset OK: '%s', %zu nodes, %zu edges, %zu terms\n",
                (*mapped)->name().c_str(),
                (*mapped)->data().num_nodes(),
                (*mapped)->authority().num_edges(),
                (*mapped)->corpus().vocab_size());
  } else if (std::equal(magic, magic + 8, orx::io::kRankCacheMagic)) {
    auto cache = orx::io::OpenMappedRankCache(path);
    if (!cache.ok()) {
      std::printf("%s\n", cache.status().ToString().c_str());
      return;
    }
    std::printf("mmap rank cache OK: %zu terms x %zu nodes\n",
                cache->Terms().size(), cache->num_nodes());
  } else {
    std::printf("%s: unrecognized magic (expected ORXD2 or ORXC2)\n",
                path.c_str());
  }
}

void DoPack(CliState& state, const std::string& args) {
  if (!state.Ready()) return;
  auto tokens = SplitWhitespace(args);
  if (tokens.empty() || tokens.size() > 2) {
    std::printf("usage: pack <dataset.orxd2> [rank-cache.orxc2]\n");
    return;
  }
  Status status =
      orx::io::WriteDatasetContainer(*state.dataset, state.rates, tokens[0]);
  if (!status.ok()) {
    std::printf("%s\n", status.ToString().c_str());
    return;
  }
  std::printf("packed %s\n", tokens[0].c_str());
  if (tokens.size() == 2) {
    if (state.rank_cache == nullptr) {
      std::printf("no rank cache attached (run 'precompute' first)\n");
      return;
    }
    status = orx::io::WriteRankCacheContainer(*state.rank_cache, tokens[1]);
    std::printf("%s\n", status.ok() ? ("packed " + tokens[1]).c_str()
                                    : status.ToString().c_str());
  }
}

// Attaches an ORXD2 container with the same deep validation orx_serve
// runs, and serves it under the rates packed with it.
void DoLoad(CliState& state, const std::string& args) {
  const std::string path(orx::StripWhitespace(args));
  if (path.empty()) {
    std::printf("usage: load <dataset.orxd2>\n");
    return;
  }
  auto mapped = orx::io::OpenMappedDataset(path);
  if (!mapped.ok()) {
    std::printf("%s\n", mapped.status().ToString().c_str());
    return;
  }
  state.AdoptDataset(std::shared_ptr<const datasets::Dataset>(
      *mapped, &(*mapped)->dataset()));
  state.rates = (*mapped)->rates();
  std::printf("attached %s; serving its packed rates\n", path.c_str());
}

void DoGenerate(CliState& state, const std::string& args) {
  auto tokens = SplitWhitespace(args);
  if (tokens.size() < 2) {
    std::printf("usage: generate dblp|bio <size>\n");
    return;
  }
  const uint32_t size =
      static_cast<uint32_t>(std::max(1, std::atoi(tokens[1].c_str())));
  if (tokens[0] == "dblp") {
    datasets::DblpDataset dblp =
        datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(size));
    state.AdoptDataset(std::move(dblp.dataset));
  } else if (tokens[0] == "bio") {
    datasets::BioDataset bio =
        datasets::GenerateBio(datasets::BioGeneratorConfig::Tiny(size));
    state.AdoptDataset(std::move(bio.dataset));
  } else {
    std::printf("usage: generate dblp|bio <size>\n");
  }
}

}  // namespace

int main() {
  CliState state;
  std::printf("ORX shell — authority-flow search with explanations "
              "(type 'help')\n");
  std::string line;
  while (std::printf("orx> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const std::string trimmed(orx::StripWhitespace(line));
    if (trimmed.empty()) continue;
    const size_t space = trimmed.find(' ');
    const std::string command = trimmed.substr(0, space);
    const std::string args =
        space == std::string::npos ? "" : trimmed.substr(space + 1);

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      std::printf("%s", kHelp);
    } else if (command == "figure1") {
      state.AdoptDataset(std::move(datasets::MakeFigure1Dataset().dataset));
    } else if (command == "generate") {
      DoGenerate(state, args);
    } else if (command == "parse") {
      auto parsed = datasets::ParseDblpXmlFile(std::string(
          orx::StripWhitespace(args)));
      if (!parsed.ok()) {
        std::printf("%s\n", parsed.status().ToString().c_str());
      } else {
        std::printf("parsed %zu papers, %zu authors, %zu/%zu citations\n",
                    parsed->papers, parsed->authors,
                    parsed->citations_resolved,
                    parsed->citations_resolved +
                        parsed->citations_unresolved);
        state.AdoptDataset(std::move(parsed->dataset));
      }
    } else if (command == "dot") {
      DoDot(state, args);
    } else if (command == "load-tsv") {
      auto loaded = orx::io::LoadGraphTsv(std::string(
          orx::StripWhitespace(args)));
      if (!loaded.ok()) {
        std::printf("%s\n", loaded.status().ToString().c_str());
      } else {
        state.AdoptDataset(std::move(loaded).value());
      }
    } else if (command == "save-tsv") {
      if (state.Ready()) {
        auto status = orx::io::SaveGraphTsv(
            *state.dataset, std::string(orx::StripWhitespace(args)));
        std::printf("%s\n", status.ok() ? "saved"
                                         : status.ToString().c_str());
      }
    } else if (command == "load") {
      DoLoad(state, args);
    } else if (command == "info") {
      if (state.Ready()) {
        std::printf("'%s': %zu nodes, %zu data edges, %zu indexed terms, "
                    "%.1f MB in memory\n",
                    state.dataset->name().c_str(),
                    state.dataset->data().num_nodes(),
                    state.dataset->data().num_edges(),
                    state.dataset->corpus().vocab_size(),
                    state.dataset->MemoryFootprintBytes() / 1048576.0);
      }
    } else if (command == "rates") {
      DoRates(state, args);
    } else if (command == "filter") {
      DoFilter(state, args);
    } else if (command == "k") {
      const int k = std::atoi(args.c_str());
      if (k >= 1) state.search_options.k = static_cast<size_t>(k);
      std::printf("k = %zu\n", state.search_options.k);
    } else if (command == "validate") {
      DoValidate(state, args);
    } else if (command == "pack") {
      DoPack(state, args);
    } else if (command == "precompute") {
      DoPrecompute(state, args);
    } else if (command == "query") {
      DoQuery(state, args);
    } else if (command == "explain") {
      DoExplain(state, args);
    } else if (command == "feedback") {
      DoFeedback(state, args);
    } else if (command == "show") {
      std::printf("query: %s\n", state.query.ToString().c_str());
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }
  std::printf("\n");
  return 0;
}
