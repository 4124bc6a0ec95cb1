// Thread-sweep for the parallel RankCache build: per-term ObjectRank
// vectors are independent (the combination of Section 6's precomputation
// strategy is linear in them), so the offline build solves them in
// blocks of up to 8 terms per block power iteration and should scale
// with worker threads while its ORXC2 container stays byte-identical to
// the sequential build's. Reports wall time, speedup vs 1 thread, iteration
// counts, and per-term p50/p95 for each thread count.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/rank_cache.h"
#include "io/snapshot_io.h"
#include "text/query.h"

namespace {

// The cache's ORXC2 container bytes (written to $TMPDIR, then removed),
// or an empty string if the write fails.
std::string ContainerBytes(const orx::core::RankCache& cache) {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/bench_precompute_scaling_" +
                           std::to_string(getpid()) + ".orxc2";
  if (!orx::io::WriteRankCacheContainer(cache, path).ok()) return {};
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

}  // namespace

int main() {
  using namespace orx;
  const double scale = bench::ScaleFromEnv();
  const int max_threads = bench::BuildThreadsFromEnv();
  std::printf("=== Precompute scaling: RankCache::BuildForTerms vs worker "
              "threads (scale=%.3f, hw=%zu) ===\n\n",
              scale, ThreadPool::HardwareThreads());
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      bench::ScaledDblp(datasets::DblpGeneratorConfig::DblpTop(), scale));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  std::printf("dataset: %zu nodes, %zu authority edges\n\n",
              dblp.dataset.data().num_nodes(),
              dblp.dataset.authority().num_edges());

  // The term workload: the survey query mix padded with the most frequent
  // corpus terms, so the sweep ranks enough terms to keep every worker
  // busy.
  std::vector<std::string> terms;
  for (const std::string& q : bench::DblpSurveyQueries()) {
    for (const std::string& term : text::ParseQuery(q)) {
      terms.push_back(term);
    }
  }
  const text::Corpus& corpus = dblp.dataset.corpus();
  std::vector<std::pair<uint32_t, std::string>> by_df;
  for (text::TermId t = 0; t < corpus.vocab_size(); ++t) {
    by_df.emplace_back(corpus.Df(t), corpus.TermString(t));
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (size_t i = 0; i < by_df.size() && terms.size() < 48; ++i) {
    terms.push_back(by_df[i].second);
  }

  core::RankCache::Options options;
  const bench::BenchDataset dataset_info{
      "dblp-top-synthetic", dblp.dataset.data().num_nodes(),
      dblp.dataset.authority().num_edges()};
  auto record_point = [&](int threads,
                          const core::RankCache::BuildStats& stats) {
    bench::JsonObject record = bench::BenchRecord(
        "precompute_scaling", dataset_info, threads, stats.wall_seconds);
    record.Add("terms_built", stats.terms_built)
        .Add("total_iterations", stats.total_iterations)
        .Add("term_seconds_p50", stats.term_seconds_p50)
        .Add("term_seconds_p95", stats.term_seconds_p95);
    return record.ToString();
  };
  std::vector<std::string> records;

  // Sequential reference build: the determinism baseline.
  options.build_threads = 1;
  core::RankCache::BuildStats base_stats;
  core::RankCache reference = core::RankCache::BuildForTerms(
      dblp.dataset.authority(), dblp.dataset.corpus(), rates, terms, options,
      &base_stats);
  const std::string reference_bytes = ContainerBytes(reference);
  if (reference_bytes.empty()) {
    std::printf("reference container write failed\n");
    return 1;
  }
  const double base_seconds = base_stats.wall_seconds;
  records.push_back(record_point(1, base_stats));

  TablePrinter table({"threads", "build (s)", "speedup", "iters",
                      "term p50 (ms)", "term p95 (ms)", "bytes identical"});
  table.AddRow({"1", FormatDouble(base_seconds, 2), "1.0x",
                std::to_string(base_stats.total_iterations),
                FormatDouble(base_stats.term_seconds_p50 * 1e3, 1),
                FormatDouble(base_stats.term_seconds_p95 * 1e3, 1), "(ref)"});
  for (int threads = 2; threads <= max_threads; threads *= 2) {
    options.build_threads = threads;
    core::RankCache::BuildStats stats;
    core::RankCache cache = core::RankCache::BuildForTerms(
        dblp.dataset.authority(), dblp.dataset.corpus(), rates, terms,
        options, &stats);
    const std::string bytes = ContainerBytes(cache);
    if (bytes.empty()) {
      std::printf("container write failed at %d threads\n", threads);
      return 1;
    }
    const bool identical = bytes == reference_bytes;
    records.push_back(record_point(threads, stats));
    table.AddRow({std::to_string(threads),
                  FormatDouble(stats.wall_seconds, 2),
                  FormatDouble(base_seconds /
                                   std::max(stats.wall_seconds, 1e-9), 1) +
                      "x",
                  std::to_string(stats.total_iterations),
                  FormatDouble(stats.term_seconds_p50 * 1e3, 1),
                  FormatDouble(stats.term_seconds_p95 * 1e3, 1),
                  identical ? "yes" : "NO"});
    if (!identical) {
      std::printf("%s\n", table.ToString().c_str());
      std::printf("DETERMINISM VIOLATION at %d threads\n", threads);
      return 1;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::WriteJsonFile("BENCH_precompute_scaling.json",
                       bench::JsonArray(records));
  std::printf("Terms are solved in blocks of up to 8 per block power "
              "iteration, each lane bit-identical to a per-term solve; "
              "threads only change which worker ranks which block and how "
              "wide the blocks are, never the arithmetic, so the ORXC2 "
              "container must be byte-identical at every thread count. "
              "Speedup tracks physical cores (the pull passes are "
              "memory-bound).\n");
  return 0;
}
