#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "core/searcher.h"
#include "datasets/bio_generator.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_schema.h"
#include "datasets/figure1.h"
#include "graph/conformance.h"
#include "io/container.h"
#include "io/snapshot_io.h"
#include "text/query.h"

namespace orx::io {
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

ContainerHeader HeaderOf(const std::string& bytes) {
  ContainerHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

void PutHeader(std::string& bytes, const ContainerHeader& h) {
  std::memcpy(bytes.data(), &h, sizeof(h));
}

/// Index of the TOC entry named `name`, or -1.
int FindSection(const std::string& bytes, const char* name) {
  const ContainerHeader h = HeaderOf(bytes);
  for (uint32_t i = 0; i < h.section_count; ++i) {
    SectionEntry e;
    std::memcpy(&e, bytes.data() + h.toc_offset + i * sizeof(SectionEntry),
                sizeof(e));
    if (std::strncmp(e.name, name, sizeof(e.name)) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

SectionEntry GetSection(const std::string& bytes, int index) {
  SectionEntry e;
  std::memcpy(&e,
              bytes.data() + HeaderOf(bytes).toc_offset +
                  static_cast<size_t>(index) * sizeof(SectionEntry),
              sizeof(e));
  return e;
}

void PutSection(std::string& bytes, int index, const SectionEntry& e) {
  std::memcpy(bytes.data() + HeaderOf(bytes).toc_offset +
                  static_cast<size_t>(index) * sizeof(SectionEntry),
              &e, sizeof(e));
}

/// Overwrites `value`'s bytes at `at` bytes into section `name`'s payload.
/// The section hash goes stale, so only the fast attach path (which
/// skips hashes) reaches the loader checks behind it.
template <typename T>
void PatchSection(std::string& bytes, const char* name, size_t at, T value) {
  const int index = FindSection(bytes, name);
  ASSERT_GE(index, 0) << name;
  const SectionEntry e = GetSection(bytes, index);
  ASSERT_LE(at + sizeof(T), e.size) << name;
  std::memcpy(bytes.data() + e.offset + at, &value, sizeof(T));
}

MappedDatasetOptions FastAttach() {
  MappedDatasetOptions fast;
  fast.deep_validate = false;
  return fast;
}

/// A Figure 1 dataset written as an ORXD2 container.
struct PackedFigure1 {
  datasets::Figure1Dataset fig;
  graph::TransferRates rates;
  std::string path;
};

PackedFigure1 MakePackedFigure1(const std::string& filename) {
  PackedFigure1 p{datasets::MakeFigure1Dataset(), {}, TempPath(filename)};
  p.rates =
      datasets::DblpGroundTruthRates(p.fig.dataset.schema(), p.fig.types);
  EXPECT_TRUE(WriteDatasetContainer(p.fig.dataset, p.rates, p.path).ok());
  return p;
}

TEST(ContainerFormatTest, HeaderAndEntryAre64Bytes) {
  EXPECT_EQ(sizeof(ContainerHeader), 64u);
  EXPECT_EQ(sizeof(SectionEntry), 64u);
}

TEST(ContainerWriterTest, SectionsAreAlignedAndHashed) {
  const std::string path = TempPath("writer_basic.orxd2");
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<double> b = {0.5, 0.25};
  ContainerWriter writer(kDatasetMagic);
  writer.Add<uint32_t>("a", a);
  writer.Add<double>("b", b);
  ASSERT_TRUE(writer.WriteTo(path).ok());

  auto mapped = MappedContainer::Open(path, kDatasetMagic);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->VerifyHashes().ok());
  auto sa = mapped->Section<uint32_t>("a");
  ASSERT_TRUE(sa.ok());
  ASSERT_EQ(sa->size(), 3u);
  EXPECT_EQ((*sa)[2], 3u);
  // Zero-copy: the section aliases the mapping and is 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(sa->data()) % kSectionAlign, 0u);
  auto sb = mapped->Section<double>("b");
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ((*sb)[1], 0.25);
  // Wrong element type and missing names are errors, not garbage reads.
  EXPECT_FALSE(mapped->Section<uint64_t>("a").ok());
  EXPECT_EQ(mapped->Bytes("nope").status().code(), StatusCode::kNotFound);
}

TEST(MappedDatasetTest, RoundTripMatchesInMemoryDataset) {
  datasets::DblpDataset dblp = datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(/*papers=*/300, /*seed=*/17));
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(dblp.dataset.schema(), dblp.types);
  const std::string path = TempPath("roundtrip.orxd2");
  ASSERT_TRUE(WriteDatasetContainer(dblp.dataset, rates, path).ok());

  auto mapped = OpenMappedDataset(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MappedDataset& m = **mapped;
  EXPECT_EQ(m.name(), dblp.dataset.name());
  EXPECT_TRUE(m.dataset().finalized());

  const graph::DataGraph& a = dblp.dataset.data();
  const graph::DataGraph& b = m.data();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.NodeType(v), b.NodeType(v));
    ASSERT_EQ(a.Text(v), b.Text(v)) << "node " << v;
  }
  for (size_t i = 0; i < a.edges().size(); ++i) {
    ASSERT_EQ(a.edges()[i].from, b.edges()[i].from) << "edge " << i;
    ASSERT_EQ(a.edges()[i].to, b.edges()[i].to) << "edge " << i;
    ASSERT_EQ(a.edges()[i].type, b.edges()[i].type) << "edge " << i;
  }
  EXPECT_TRUE(graph::CheckConformance(b, m.schema()).ok());
  // The schema handles are recoverable from the attached schema alone.
  auto types = datasets::DblpTypesFromSchema(m.schema());
  ASSERT_TRUE(types.ok());
  EXPECT_EQ(types->cites, dblp.types.cites);
  ASSERT_EQ(m.corpus().vocab_size(), dblp.dataset.corpus().vocab_size());
  EXPECT_EQ(m.corpus().avdl(), dblp.dataset.corpus().avdl());
  ASSERT_EQ(m.rates().slots(), rates.slots());

  // The acceptance bar: scores computed over the mmap-attached dataset
  // are bit-identical to the in-memory path (same arrays, same SELL
  // order, -ffp-contract=off kernels).
  core::Searcher original(a, dblp.dataset.authority(),
                          dblp.dataset.corpus());
  core::Searcher loaded(b, m.authority(), m.corpus());
  for (const char* q : {"database", "query optimization", "streams"}) {
    text::QueryVector query(text::ParseQuery(q));
    auto ra = original.Search(query, rates);
    auto rb = loaded.Search(query, rates);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_EQ(ra->scores.size(), rb->scores.size());
    for (size_t v = 0; v < ra->scores.size(); ++v) {
      ASSERT_EQ(ra->scores[v], rb->scores[v]) << "query " << q << " node "
                                              << v;
    }
  }
}

TEST(MappedDatasetTest, SnapshotAliasesMappingAndSeedsWeightCache) {
  PackedFigure1 p = MakePackedFigure1("snapshot.orxd2");
  auto mapped = OpenMappedDataset(p.path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  serve::ServeSnapshot snapshot = SnapshotFromMapped(*mapped);
  ASSERT_TRUE(snapshot.Complete());
  EXPECT_EQ(snapshot.data.get(), &(*mapped)->data());
  // The weight cache hands back the mmap-backed layout for the serving
  // rates without building anything.
  auto layout = snapshot.fused_cache->Get(*snapshot.authority,
                                          snapshot.rates);
  EXPECT_EQ(layout.get(), (*mapped)->layout().get());

  core::Searcher searcher(*snapshot.data, *snapshot.authority,
                          *snapshot.corpus);
  text::QueryVector query(text::ParseQuery("olap"));
  auto result = searcher.Search(query, snapshot.rates);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->scores[p.fig.v7_data_cube], 0.083, 0.001);
}

TEST(MappedDatasetTest, ContainerWriteIsByteStable) {
  PackedFigure1 p = MakePackedFigure1("stable.orxd2");
  const std::string pristine = ReadFileBytes(p.path);
  auto mapped = OpenMappedDataset(p.path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The attached parts are an ordinary Dataset, so they pack again —
  // into the very same bytes, even over the file they are mapped from
  // (the writer replaces it by rename; truncating in place would fault
  // the mapping mid-write).
  ASSERT_TRUE(WriteDatasetContainer((*mapped)->dataset(),
                                    (*mapped)->rates(), p.path)
                  .ok());
  EXPECT_EQ(ReadFileBytes(p.path), pristine);
  core::Searcher searcher((*mapped)->data(), (*mapped)->authority(),
                          (*mapped)->corpus());
  auto result = searcher.Search(text::QueryVector(text::ParseQuery("olap")),
                                (*mapped)->rates());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->scores[p.fig.v7_data_cube], 0.083, 0.001);
}

TEST(MappedDatasetTest, BioRoundTripRecoversSchemaHandles) {
  datasets::BioDataset bio = datasets::GenerateBio(
      datasets::BioGeneratorConfig::Tiny(/*pubs=*/200, /*seed=*/13));
  const graph::TransferRates rates =
      datasets::BioGroundTruthRates(bio.dataset.schema(), bio.types);
  const std::string path = TempPath("bio.orxd2");
  ASSERT_TRUE(WriteDatasetContainer(bio.dataset, rates, path).ok());
  auto mapped = OpenMappedDataset(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->data().num_nodes(), bio.dataset.data().num_nodes());
  EXPECT_EQ((*mapped)->data().num_edges(), bio.dataset.data().num_edges());
  EXPECT_TRUE(datasets::BioTypesFromSchema((*mapped)->schema()).ok());
  EXPECT_EQ((*mapped)->rates().slots(), rates.slots());
}

TEST(MappedDatasetTest, MissingFileIsNotFound) {
  EXPECT_EQ(OpenMappedDataset("/nonexistent/x.orxd2").status().code(),
            StatusCode::kNotFound);
}

TEST(MappedDatasetTest, RejectsWrongMagic) {
  PackedFigure1 p = MakePackedFigure1("wrong_magic.orxd2");
  // An ORXD2 file is not an ORXC2 rank cache.
  EXPECT_EQ(OpenMappedRankCache(p.path).status().code(),
            StatusCode::kDataLoss);
  std::string bytes = ReadFileBytes(p.path);
  bytes[0] = 'X';
  WriteFileBytes(p.path, bytes);
  EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
            StatusCode::kDataLoss);
}

TEST(MappedDatasetTest, RejectsTruncation) {
  PackedFigure1 p = MakePackedFigure1("truncated.orxd2");
  const std::string bytes = ReadFileBytes(p.path);
  for (size_t cut : {size_t{0}, size_t{17}, sizeof(ContainerHeader) - 1,
                     bytes.size() / 2, bytes.size() - 1}) {
    WriteFileBytes(p.path, bytes.substr(0, cut));
    auto result = OpenMappedDataset(p.path);
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut;
  }
}

TEST(MappedDatasetTest, RejectsHostileTocOffsets) {
  PackedFigure1 p = MakePackedFigure1("hostile_toc.orxd2");
  const std::string pristine = ReadFileBytes(p.path);

  {
    // TOC offset beyond the file.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.toc_offset = h.file_size + kSectionAlign;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Misaligned TOC.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.toc_offset += 8;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Section count engineered so count * sizeof(SectionEntry) overflows
    // if computed naively.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.section_count = 0x40000000u;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // file_size lies about the mapping length.
    std::string bytes = pristine;
    ContainerHeader h = HeaderOf(bytes);
    h.file_size -= 1;
    PutHeader(bytes, h);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(MappedDatasetTest, RejectsHostileSectionEntries) {
  PackedFigure1 p = MakePackedFigure1("hostile_section.orxd2");
  const std::string pristine = ReadFileBytes(p.path);
  const int edges = FindSection(pristine, "edges");
  ASSERT_GE(edges, 0);

  {
    // Payload escaping the file: offset + size overflows past the end.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset = HeaderOf(bytes).file_size - kSectionAlign;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Offset engineered so offset + size wraps around 2^64.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset = ~uint64_t{0} - kSectionAlign + 1;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Misaligned payload breaks the zero-copy casts.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.offset += 4;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // Element accounting that disagrees with the byte size.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    e.elem_count += 1;
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // A name without a NUL terminator must not be read as a string.
    std::string bytes = pristine;
    SectionEntry e = GetSection(bytes, edges);
    std::memset(e.name, 'A', sizeof(e.name));
    PutSection(bytes, edges, e);
    WriteFileBytes(p.path, bytes);
    EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(MappedDatasetTest, RejectsImplausibleMetaLengths) {
  PackedFigure1 p = MakePackedFigure1("hostile_meta.orxd2");
  std::string bytes = ReadFileBytes(p.path);
  // Meta layout: u32 version, then the u32-length-prefixed name. An
  // absurd length must fail as kDataLoss naming the field, not allocate.
  PatchSection<uint32_t>(bytes, "meta", 4, 0xFFFFFFF0u);
  WriteFileBytes(p.path, bytes);
  auto fast = OpenMappedDataset(p.path, FastAttach());
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(fast.status().message().find("implausible name length"),
            std::string::npos)
      << fast.status().message();
  EXPECT_EQ(OpenMappedDataset(p.path).status().code(),
            StatusCode::kDataLoss);
}

TEST(MappedDatasetTest, DeepValidationCatchesPayloadCorruption) {
  PackedFigure1 p = MakePackedFigure1("corrupt_payload.orxd2");
  std::string bytes = ReadFileBytes(p.path);
  const int edges = FindSection(bytes, "edges");
  ASSERT_GE(edges, 0);
  const SectionEntry e = GetSection(bytes, edges);
  // Flip one payload byte without updating the hash.
  bytes[e.offset] ^= 0x01;
  WriteFileBytes(p.path, bytes);
  auto result = OpenMappedDataset(p.path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().ToString().find("hash"), std::string::npos);
}

TEST(MappedDatasetTest, DeepValidationCatchesSchemaViolatingEdges) {
  PackedFigure1 p = MakePackedFigure1("bad_edge.orxd2");
  std::string bytes = ReadFileBytes(p.path);
  const int edges = FindSection(bytes, "edges");
  ASSERT_GE(edges, 0);
  SectionEntry e = GetSection(bytes, edges);
  ASSERT_GT(e.elem_count, 0u);
  // Point the first edge's target at a nonexistent node, then recompute
  // the section hash so only the deep per-edge validator can object.
  graph::DataEdge first;
  std::memcpy(&first, bytes.data() + e.offset, sizeof(first));
  first.to = 0xFFFFFF00u;
  std::memcpy(bytes.data() + e.offset, &first, sizeof(first));
  e.hash = Fnv1a({bytes.data() + e.offset, static_cast<size_t>(e.size)});
  PutSection(bytes, edges, e);
  WriteFileBytes(p.path, bytes);

  auto deep = OpenMappedDataset(p.path);
  ASSERT_FALSE(deep.ok());
  // The fast path skips per-edge validation by design (trusted inputs).
  MappedDatasetOptions fast;
  fast.deep_validate = false;
  EXPECT_TRUE(OpenMappedDataset(p.path, fast).ok());
}

TEST(MappedRankCacheTest, RoundTripIsExact) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache::Options options;
  core::RankCache cache =
      core::RankCache::Build(fig.dataset.authority(), fig.dataset.corpus(),
                             rates, options);
  ASSERT_GT(cache.Terms().size(), 0u);

  const std::string path = TempPath("cache.orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(cache, path).ok());
  auto loaded = OpenMappedRankCache(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_nodes(), cache.num_nodes());
  EXPECT_EQ(loaded->rates_fingerprint(), cache.rates_fingerprint());
  ASSERT_EQ(loaded->Terms(), cache.Terms());
  // Bit-exact: the packed representations must agree float for float.
  auto packed_a = cache.PackEntries();
  auto packed_b = loaded->PackEntries();
  ASSERT_TRUE(packed_a.ok());
  ASSERT_TRUE(packed_b.ok());
  const core::RankCache::PackedEntries& a = *packed_a;
  const core::RankCache::PackedEntries& b = *packed_b;
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.heap, b.heap);
  EXPECT_EQ(a.masses, b.masses);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i], b.scores[i]) << "score " << i;
  }
}

TEST(MappedRankCacheTest, RejectsTruncationAndWrongMagic) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache cache =
      core::RankCache::Build(fig.dataset.authority(), fig.dataset.corpus(),
                             rates, core::RankCache::Options());
  const std::string path = TempPath("cache_hostile.orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(cache, path).ok());
  // An ORXC2 file is not a dataset.
  EXPECT_EQ(OpenMappedDataset(path).status().code(), StatusCode::kDataLoss);
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(OpenMappedRankCache(path).status().code(),
            StatusCode::kDataLoss);
}

TEST(MappedRankCacheTest, RejectsHostileMetaAndTermTable) {
  datasets::Figure1Dataset fig = datasets::MakeFigure1Dataset();
  graph::TransferRates rates =
      datasets::DblpGroundTruthRates(fig.dataset.schema(), fig.types);
  core::RankCache cache =
      core::RankCache::Build(fig.dataset.authority(), fig.dataset.corpus(),
                             rates, core::RankCache::Options());
  ASSERT_GE(cache.num_terms(), 2u);
  const std::string path = TempPath("cache_hostile_meta.orxc2");
  ASSERT_TRUE(WriteRankCacheContainer(cache, path).ok());
  const std::string pristine = ReadFileBytes(path);
  // Each forged file must fail the fast attach with kDataLoss whose
  // message contains `want`; the deep attach also sees the stale hash.
  auto expect_rejected = [&](const std::string& bytes, const char* want) {
    WriteFileBytes(path, bytes);
    auto fast = OpenMappedRankCache(path, FastAttach());
    ASSERT_FALSE(fast.ok()) << want;
    EXPECT_EQ(fast.status().code(), StatusCode::kDataLoss) << want;
    EXPECT_NE(fast.status().message().find(want), std::string::npos)
        << fast.status().message();
    EXPECT_EQ(OpenMappedRankCache(path).status().code(),
              StatusCode::kDataLoss)
        << want;
  };
  // Meta layout: u32 version, u64 node count, u64 rates fingerprint,
  // 3 x f64 BM25 parameters, u64 term count.
  {
    // Oversized node count: rejected before anything is sized by it.
    std::string bytes = pristine;
    PatchSection<uint64_t>(bytes, "meta", 4, ~uint64_t{0});
    expect_rejected(bytes, "implausible rank cache node count");
  }
  {
    // Term count far beyond the stored masses.
    std::string bytes = pristine;
    PatchSection<uint64_t>(bytes, "meta", 44, uint64_t{1} << 26);
    expect_rejected(bytes, "term count");
  }
  {
    // The last term offset runs past the term heap.
    std::string bytes = pristine;
    PatchSection<uint64_t>(bytes, "rc_offsets",
                           cache.num_terms() * sizeof(uint64_t),
                           uint64_t{1} << 40);
    expect_rejected(bytes, "do not cover the heap");
  }
  {
    // A middle term offset far past the heap, with the last one intact:
    // the first term must not be read out of bounds.
    std::string bytes = pristine;
    PatchSection<uint64_t>(bytes, "rc_offsets", sizeof(uint64_t),
                           uint64_t{1} << 40);
    expect_rejected(bytes, "not monotonic within the heap");
  }
  {
    // A zero-length first term: an empty key would shadow real lookups.
    std::string bytes = pristine;
    PatchSection<uint64_t>(bytes, "rc_offsets", sizeof(uint64_t), 0);
    expect_rejected(bytes, "empty rank cache term");
  }
  // Truncation at every byte boundary is kDataLoss, never a crash (the
  // suite runs under ASan in CI).
  for (size_t cut = 0; cut < pristine.size(); ++cut) {
    WriteFileBytes(path, pristine.substr(0, cut));
    auto result = OpenMappedRankCache(path, FastAttach());
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace orx::io
