// Robustness sweeps over the parsers and container loaders: byte
// mutations and exhaustive truncations of valid inputs must produce a
// clean Status (or a successful parse), never a crash, hang, or runaway
// allocation.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "core/rank_cache.h"
#include "core/searcher.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_xml.h"
#include "datasets/figure1.h"
#include "io/graph_tsv.h"
#include "io/snapshot_io.h"
#include "text/query.h"

namespace orx {
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

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

io::MappedDatasetOptions FastAttach() {
  io::MappedDatasetOptions fast;
  fast.deep_validate = false;
  return fast;
}

// Valid inputs to mutate.
std::string ValidXml() {
  datasets::DblpDataset dblp =
      datasets::GenerateDblp(datasets::DblpGeneratorConfig::Tiny(40, 3));
  return datasets::WriteDblpXml(dblp.dataset.data(), dblp.types);
}

std::string ValidTsv() {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  return io::WriteGraphTsv(fig.dataset);
}

// The Figure 1 dataset as ORXD2 container bytes.
std::string ValidDatasetContainer() {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  const std::string path = TempPath("robustness_valid.orxd2");
  EXPECT_TRUE(io::WriteDatasetContainer(fig.dataset, rates, path).ok());
  return ReadFileBytes(path);
}

// A Figure 1 rank cache as ORXC2 container bytes.
std::string ValidCacheContainer() {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache cache = core::RankCache::BuildForTerms(
      fig.dataset.authority(), fig.dataset.corpus(), rates, {"olap"},
      core::RankCache::Options{});
  const std::string path = TempPath("robustness_valid.orxc2");
  EXPECT_TRUE(io::WriteRankCacheContainer(cache, path).ok());
  return ReadFileBytes(path);
}

// Applies `parse` to `rounds` mutated copies of `valid`; the only
// requirement is no crash (the parse may succeed or fail cleanly).
template <typename ParseFn>
void MutationSweep(const std::string& valid, ParseFn parse, int rounds,
                   uint64_t seed) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    parse(mutated);  // must not crash
  }
  SUCCEED();
}

// Applies `parse` to every truncation of `valid` (stride > 1 for long
// inputs to bound runtime).
template <typename ParseFn>
void TruncationSweep(const std::string& valid, ParseFn parse) {
  const size_t stride = std::max<size_t>(1, valid.size() / 400);
  for (size_t cut = 0; cut < valid.size(); cut += stride) {
    parse(valid.substr(0, cut));
  }
  SUCCEED();
}

TEST(RobustnessTest, DblpXmlMutations) {
  const std::string valid = ValidXml();
  auto parse = [](const std::string& input) {
    auto result = datasets::ParseDblpXml(input);
    (void)result;
  };
  MutationSweep(valid, parse, 200, 1);
  TruncationSweep(valid, parse);
}

TEST(RobustnessTest, GraphTsvMutations) {
  const std::string valid = ValidTsv();
  auto parse = [](const std::string& input) {
    auto result = io::ParseGraphTsv(input);
    (void)result;
  };
  MutationSweep(valid, parse, 200, 2);
  TruncationSweep(valid, parse);
}

TEST(RobustnessTest, BinaryDatasetMutations) {
  const std::string valid = ValidDatasetContainer();
  const std::string path = TempPath("robustness_mutated.orxd2");
  auto parse = [&](const std::string& input) {
    WriteFileBytes(path, input);
    auto deep = io::OpenMappedDataset(path);
    auto fast = io::OpenMappedDataset(path, FastAttach());
    // Deep validation only tightens the fast path's checks.
    EXPECT_TRUE(!deep.ok() || fast.ok());
    if (!deep.ok()) return;
    // A deep-validated dataset is safe to search.
    const io::MappedDataset& d = **deep;
    core::Searcher searcher(d.data(), d.authority(), d.corpus());
    IgnoreError(searcher.Search(text::QueryVector(text::ParseQuery("olap")),
                                d.rates()));
  };
  MutationSweep(valid, parse, 200, 3);
  TruncationSweep(valid, parse);
}

TEST(RobustnessTest, RankCacheMutations) {
  const std::string valid = ValidCacheContainer();
  const std::string path = TempPath("robustness_mutated.orxc2");
  const text::QueryVector query(text::ParseQuery("olap data cube"));
  auto parse = [&](const std::string& input) {
    WriteFileBytes(path, input);
    auto deep = io::OpenMappedRankCache(path);
    auto fast = io::OpenMappedRankCache(path, FastAttach());
    EXPECT_TRUE(!deep.ok() || fast.ok());
    for (const auto* cache : {&deep, &fast}) {
      if (!cache->ok()) continue;
      // Attach guarantees the structure; only value-level violations
      // (NaN/negative masses and scores from hostile float bytes) may
      // remain, and Query must survive them.
      const Status valid_status = (*cache)->ValidateInvariants();
      EXPECT_EQ(valid_status.message().find("scores, want num_nodes"),
                std::string::npos);
      EXPECT_EQ(valid_status.message().find("empty term"), std::string::npos);
      IgnoreError((*cache)->Query(query));
    }
  };
  MutationSweep(valid, parse, 200, 4);
  TruncationSweep(valid, parse);
}

}  // namespace
}  // namespace orx
