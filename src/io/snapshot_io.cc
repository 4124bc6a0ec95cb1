#include "io/snapshot_io.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/byte_io.h"
#include "graph/validate.h"

namespace orx::io {
namespace {

constexpr uint32_t kMetaVersion = 1;
// Sanity bounds for the meta blob's variable-length fields; real values
// are orders of magnitude smaller, anything beyond is corruption.
constexpr uint64_t kNameLimit = 1ull << 12;
constexpr uint64_t kTypeLimit = 1ull << 16;
// Rank-cache node-count bound: Query sizes one double per node, so a
// hostile count must fail here, before anything is allocated for it.
constexpr uint64_t kRankCacheNodeLimit = 1ull << 27;

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutDouble(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

// The ORXD2 meta blob: everything the loader cannot borrow as a flat
// array — the dataset name, the schema, the serving rates, and the
// corpus avdl.
std::string BuildDatasetMeta(const datasets::Dataset& dataset,
                             const graph::TransferRates& rates) {
  const graph::SchemaGraph& schema = dataset.schema();
  std::string meta;
  PutU32(meta, kMetaVersion);
  PutString(meta, dataset.name());
  PutU64(meta, dataset.data().num_nodes());
  PutU64(meta, dataset.data().num_edges());
  PutDouble(meta, dataset.corpus().avdl());
  PutU32(meta, static_cast<uint32_t>(schema.num_node_types()));
  for (graph::TypeId t = 0; t < schema.num_node_types(); ++t) {
    PutString(meta, schema.NodeTypeLabel(t));
  }
  PutU32(meta, static_cast<uint32_t>(schema.num_edge_types()));
  for (graph::EdgeTypeId e = 0; e < schema.num_edge_types(); ++e) {
    const graph::SchemaEdge& edge = schema.EdgeType(e);
    PutU32(meta, edge.from);
    PutU32(meta, edge.to);
    PutString(meta, edge.role);
  }
  PutU32(meta, static_cast<uint32_t>(rates.num_slots()));
  for (double slot : rates.slots()) PutDouble(meta, slot);
  PutU64(meta, rates.Fingerprint());
  return meta;
}

struct DatasetMeta {
  std::string name;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  double avdl = 0.0;
  std::unique_ptr<graph::SchemaGraph> schema;
  graph::TransferRates rates;
  uint64_t rates_fingerprint = 0;
};

StatusOr<DatasetMeta> ParseDatasetMeta(std::span<const char> bytes) {
  ByteReader reader(bytes);
  uint32_t version = 0;
  ORX_RETURN_IF_ERROR(reader.ReadU32(&version, "meta version"));
  if (version != kMetaVersion) {
    return DataLossError("unsupported dataset meta version " +
                         std::to_string(version));
  }
  DatasetMeta meta;
  ORX_RETURN_IF_ERROR(reader.ReadString(&meta.name, kNameLimit, "name"));
  ORX_RETURN_IF_ERROR(reader.ReadU64(&meta.num_nodes, "node count"));
  ORX_RETURN_IF_ERROR(reader.ReadU64(&meta.num_edges, "edge count"));
  ORX_RETURN_IF_ERROR(reader.ReadDouble(&meta.avdl, "avdl"));

  meta.schema = std::make_unique<graph::SchemaGraph>();
  uint32_t num_types = 0;
  ORX_RETURN_IF_ERROR(reader.ReadU32(&num_types, "node type count"));
  if (num_types > kTypeLimit) {
    return DataLossError("implausible node type count " +
                         std::to_string(num_types));
  }
  for (uint32_t t = 0; t < num_types; ++t) {
    std::string label;
    ORX_RETURN_IF_ERROR(reader.ReadString(&label, kNameLimit, "type label"));
    auto added = meta.schema->AddNodeType(std::move(label));
    if (!added.ok()) return added.status();
  }
  uint32_t num_edge_types = 0;
  ORX_RETURN_IF_ERROR(reader.ReadU32(&num_edge_types, "edge type count"));
  if (num_edge_types > kTypeLimit) {
    return DataLossError("implausible edge type count " +
                         std::to_string(num_edge_types));
  }
  for (uint32_t e = 0; e < num_edge_types; ++e) {
    uint32_t from = 0, to = 0;
    std::string role;
    ORX_RETURN_IF_ERROR(reader.ReadU32(&from, "edge type source"));
    ORX_RETURN_IF_ERROR(reader.ReadU32(&to, "edge type target"));
    ORX_RETURN_IF_ERROR(reader.ReadString(&role, kNameLimit, "edge role"));
    if (from >= num_types || to >= num_types) {
      return DataLossError("schema edge type " + std::to_string(e) +
                           " references an unknown node type");
    }
    auto added = meta.schema->AddEdgeType(from, to, std::move(role));
    if (!added.ok()) return added.status();
  }

  uint32_t num_slots = 0;
  ORX_RETURN_IF_ERROR(reader.ReadU32(&num_slots, "rate slot count"));
  if (num_slots != meta.schema->num_rate_slots()) {
    return DataLossError("meta carries " + std::to_string(num_slots) +
                         " rate slots, schema wants " +
                         std::to_string(meta.schema->num_rate_slots()));
  }
  meta.rates = graph::TransferRates(*meta.schema, 0.0);
  for (uint32_t s = 0; s < num_slots; ++s) {
    double rate = 0.0;
    ORX_RETURN_IF_ERROR(reader.ReadDouble(&rate, "rate slot"));
    meta.rates.set_slot(s, rate);
  }
  ORX_RETURN_IF_ERROR(
      reader.ReadU64(&meta.rates_fingerprint, "rates fingerprint"));
  if (meta.rates.Fingerprint() != meta.rates_fingerprint) {
    return DataLossError("rates fingerprint does not match the slots");
  }
  return meta;
}

// Offset of a section's payload inside the mapping (for madvise).
void AdviseSection(const MappedContainer& container, std::string_view name,
                   void (MmapFile::*advise)(size_t, size_t) const) {
  auto bytes = container.Bytes(name);
  if (!bytes.ok() || bytes->empty()) return;
  const MmapFile& file = *container.file();
  (file.*advise)(static_cast<size_t>(bytes->data() - file.data()),
                 bytes->size());
}

}  // namespace

Status WriteDatasetContainer(const datasets::Dataset& dataset,
                             const graph::TransferRates& rates,
                             const std::string& path) {
  if (!dataset.finalized()) {
    return InvalidArgumentError("dataset must be finalized before packing");
  }
  const graph::DataGraph& data = dataset.data();
  const graph::AuthorityGraph& authority = dataset.authority();
  const text::Corpus& corpus = dataset.corpus();
  if (rates.num_slots() != dataset.schema().num_rate_slots()) {
    return InvalidArgumentError("rates do not match the dataset schema");
  }

  // Packed views; the locals below must outlive WriteTo (the writer
  // stores views, not copies).
  graph::DataGraph::PackedAttributes attrs = data.PackAttributes();
  const std::span<const uint64_t> attr_offsets =
      attrs.offsets.empty() ? attrs.offsets_view
                            : std::span<const uint64_t>(attrs.offsets);
  const std::span<const graph::PackedAttribute> attr_entries =
      attrs.attrs.empty() ? attrs.attrs_view
                          : std::span<const graph::PackedAttribute>(
                                attrs.attrs);
  const std::span<const char> text_heap =
      attrs.heap.empty() ? attrs.heap_view
                         : std::span<const char>(attrs.heap.data(),
                                                 attrs.heap.size());
  const text::Corpus::PackedTerms terms = corpus.PackTerms();

  // The SpMV layout for the serving rates, built once here so every
  // restart skips the SELL reslice and weight resolution.
  const graph::SellStructure sell(authority);
  const graph::FusedLayout layout(
      authority, rates,
      std::shared_ptr<const graph::SellStructure>(&sell, [](const void*) {}));

  ContainerWriter writer(kDatasetMagic);
  writer.AddOwned("meta", BuildDatasetMeta(dataset, rates));
  writer.Add<graph::TypeId>("node_types", data.node_types());
  writer.Add<uint64_t>("attr_offsets", attr_offsets);
  writer.Add<graph::PackedAttribute>("attr_entries", attr_entries);
  writer.Add<char>("text_heap", text_heap);
  writer.Add<graph::DataEdge>("edges", data.edges());
  writer.Add<uint64_t>("out_offsets", authority.out_offsets());
  writer.Add<graph::AuthorityEdge>("out_edges", authority.out_edges());
  writer.Add<uint64_t>("in_offsets", authority.in_offsets());
  writer.Add<graph::AuthorityEdge>("in_edges", authority.in_edges());
  writer.Add<uint32_t>("row_order", sell.row_order);
  writer.Add<uint32_t>("node_row", sell.node_row);
  writer.Add<uint64_t>("chunk_offsets", sell.chunk_offsets);
  writer.Add<uint32_t>("sources", sell.sources);
  writer.Add<uint32_t>("sources_row", sell.sources_row);
  writer.Add<double>("fused_weights", layout.weight_span());
  writer.Add<uint32_t>("doc_lengths", corpus.doc_lengths());
  writer.Add<uint64_t>("post_offsets", corpus.postings_offsets());
  writer.Add<text::Posting>("postings", corpus.all_postings());
  writer.Add<uint64_t>("dt_offsets", corpus.doc_terms_offsets());
  writer.Add<text::DocTerm>("doc_terms", corpus.all_doc_terms());
  writer.Add<uint64_t>("term_offsets", terms.offsets);
  writer.Add<char>("term_heap",
                   std::span<const char>(terms.heap.data(),
                                         terms.heap.size()));
  return writer.WriteTo(path);
}

StatusOr<std::shared_ptr<MappedDataset>> OpenMappedDataset(
    const std::string& path, const MappedDatasetOptions& options) {
  auto container = MappedContainer::Open(path, kDatasetMagic);
  if (!container.ok()) return container.status();

  auto mapped = std::make_shared<MappedDataset>(MappedDataset::Private());
  mapped->container_ = std::move(*container);
  const MappedContainer& c = mapped->container_;
  const std::shared_ptr<const MmapFile> keepalive = c.file();

  auto meta_bytes = c.Bytes("meta");
  if (!meta_bytes.ok()) return meta_bytes.status();
  auto meta = ParseDatasetMeta(*meta_bytes);
  if (!meta.ok()) return meta.status();
  mapped->rates_ = std::move(meta->rates);

#define ORX_LOAD_SECTION(type, var, name)            \
  auto var##_or = c.Section<type>(name);             \
  if (!var##_or.ok()) return var##_or.status();      \
  const std::span<const type> var = *var##_or

  ORX_LOAD_SECTION(graph::TypeId, node_types, "node_types");
  ORX_LOAD_SECTION(uint64_t, attr_offsets, "attr_offsets");
  ORX_LOAD_SECTION(graph::PackedAttribute, attr_entries, "attr_entries");
  ORX_LOAD_SECTION(char, text_heap, "text_heap");
  ORX_LOAD_SECTION(graph::DataEdge, edges, "edges");
  ORX_LOAD_SECTION(uint64_t, out_offsets, "out_offsets");
  ORX_LOAD_SECTION(graph::AuthorityEdge, out_edges, "out_edges");
  ORX_LOAD_SECTION(uint64_t, in_offsets, "in_offsets");
  ORX_LOAD_SECTION(graph::AuthorityEdge, in_edges, "in_edges");
  ORX_LOAD_SECTION(uint32_t, row_order, "row_order");
  ORX_LOAD_SECTION(uint32_t, node_row, "node_row");
  ORX_LOAD_SECTION(uint64_t, chunk_offsets, "chunk_offsets");
  ORX_LOAD_SECTION(uint32_t, sources, "sources");
  ORX_LOAD_SECTION(uint32_t, sources_row, "sources_row");
  ORX_LOAD_SECTION(double, fused_weights, "fused_weights");
  ORX_LOAD_SECTION(uint32_t, doc_lengths, "doc_lengths");
  ORX_LOAD_SECTION(uint64_t, post_offsets, "post_offsets");
  ORX_LOAD_SECTION(text::Posting, postings, "postings");
  ORX_LOAD_SECTION(uint64_t, dt_offsets, "dt_offsets");
  ORX_LOAD_SECTION(text::DocTerm, doc_terms, "doc_terms");
  ORX_LOAD_SECTION(uint64_t, term_offsets, "term_offsets");
  ORX_LOAD_SECTION(char, term_heap, "term_heap");
#undef ORX_LOAD_SECTION

  if (node_types.size() != meta->num_nodes ||
      edges.size() != meta->num_edges) {
    return DataLossError("section sizes disagree with the meta counts");
  }

  auto data = graph::DataGraph::FromPacked(*meta->schema, node_types,
                                           attr_offsets, attr_entries,
                                           text_heap, edges, keepalive);
  if (!data.ok()) return data.status();
  const size_t num_nodes = data->num_nodes();

  auto authority = graph::AuthorityGraph::FromParts(
      out_offsets, out_edges, in_offsets, in_edges, keepalive);
  if (!authority.ok()) return authority.status();
  if (authority->num_nodes() != num_nodes) {
    return DataLossError("authority CSR node count disagrees with the "
                         "data graph");
  }

  auto corpus = text::Corpus::FromParts(
      meta->avdl, term_heap, term_offsets, doc_lengths, post_offsets,
      postings, dt_offsets, doc_terms, keepalive);
  if (!corpus.ok()) return corpus.status();
  if (corpus->num_docs() != num_nodes) {
    return DataLossError("corpus document count disagrees with the data "
                         "graph");
  }
  mapped->dataset_.emplace(
      std::move(meta->name), std::move(meta->schema),
      std::make_unique<graph::DataGraph>(std::move(*data)),
      std::make_unique<graph::AuthorityGraph>(std::move(*authority)),
      std::make_unique<text::Corpus>(std::move(*corpus)));

  auto sell = graph::SellStructure::FromParts(
      num_nodes, row_order, node_row, chunk_offsets, sources, sources_row,
      keepalive);
  if (!sell.ok()) return sell.status();
  mapped->structure_ =
      std::make_shared<const graph::SellStructure>(std::move(*sell));
  auto layout = graph::FusedLayout::FromParts(
      mapped->structure_, fused_weights, mapped->rates_.Fingerprint(),
      keepalive);
  if (!layout.ok()) return layout.status();
  mapped->layout_ =
      std::make_shared<const graph::FusedLayout>(std::move(*layout));

  if (options.deep_validate) {
    ORX_RETURN_IF_ERROR(c.VerifyHashes());
    ORX_RETURN_IF_ERROR(graph::ValidateDataEdges(mapped->data()));
    ORX_RETURN_IF_ERROR(graph::ValidateInvariants(
        mapped->authority(), mapped->schema().num_rate_slots()));
    ORX_RETURN_IF_ERROR(graph::ValidateInvariants(*mapped->layout_));
    // Corpus bounds: every posting's document and every forward entry's
    // term must be in range, else BM25 scoring reads out of bounds.
    const size_t n = mapped->corpus().num_docs();
    const size_t vocab = mapped->corpus().vocab_size();
    for (const text::Posting& p : postings) {
      if (p.doc >= n) {
        return DataLossError("corpus posting references document " +
                             std::to_string(p.doc) + " of " +
                             std::to_string(n));
      }
    }
    for (const text::DocTerm& dt : doc_terms) {
      if (dt.term >= vocab) {
        return DataLossError("corpus forward index references term " +
                             std::to_string(dt.term) + " of " +
                             std::to_string(vocab));
      }
    }
  }

  if (options.advise) {
    // Hot-on-attach metadata and offsets: fault in ahead of first touch.
    for (const char* name :
         {"meta", "node_types", "attr_offsets", "out_offsets", "in_offsets",
          "chunk_offsets", "doc_lengths", "post_offsets", "dt_offsets",
          "term_offsets", "term_heap"}) {
      AdviseSection(c, name, &MmapFile::AdviseWillNeed);
    }
    // The SpMV streams these front-to-back every iteration; sequential
    // readahead keeps an out-of-core pass at disk bandwidth.
    for (const char* name : {"sources", "sources_row", "fused_weights",
                             "in_edges", "out_edges", "edges"}) {
      AdviseSection(c, name, &MmapFile::AdviseSequential);
    }
    // Attribute lookups are point reads driven by result rendering.
    AdviseSection(c, "text_heap", &MmapFile::AdviseRandom);
    AdviseSection(c, "attr_entries", &MmapFile::AdviseRandom);
  }
  return mapped;
}

serve::ServeSnapshot SnapshotFromMapped(
    std::shared_ptr<const MappedDataset> mapped) {
  serve::ServeSnapshot snapshot;
  snapshot.data = std::shared_ptr<const graph::DataGraph>(mapped,
                                                          &mapped->data());
  snapshot.authority = std::shared_ptr<const graph::AuthorityGraph>(
      mapped, &mapped->authority());
  snapshot.corpus =
      std::shared_ptr<const text::Corpus>(mapped, &mapped->corpus());
  snapshot.rates = mapped->rates();
  // Seed the weight cache with the mmap-backed layout: the first query
  // under the serving rates streams weights from the file instead of
  // re-resolving SELL + rates.
  snapshot.fused_cache->Seed(mapped->authority(), mapped->layout());
  return snapshot;
}

namespace {

/// Rank-cache meta version 2 marks a container that carries the
/// compressed-entry sections (rc_kinds and friends). All-dense caches
/// keep writing version 1, so their containers stay byte-identical to
/// pre-compression builds and old readers still attach them; old readers
/// reject version-2 containers cleanly instead of misreading the score
/// matrix.
constexpr uint32_t kRankCacheCompressedMetaVersion = 2;

std::string BuildRankCacheMeta(const core::RankCache& cache,
                               size_t num_terms, bool compressed) {
  std::string meta;
  PutU32(meta, compressed ? kRankCacheCompressedMetaVersion : kMetaVersion);
  PutU64(meta, cache.num_nodes());
  PutU64(meta, cache.rates_fingerprint());
  PutDouble(meta, cache.bm25_params().k1);
  PutDouble(meta, cache.bm25_params().b);
  PutDouble(meta, cache.bm25_params().k3);
  PutU64(meta, num_terms);
  return meta;
}

}  // namespace

Status WriteRankCacheContainer(const core::RankCache& cache,
                               const std::string& path) {
  auto packed_or = cache.PackEntries();
  if (!packed_or.ok()) return packed_or.status();
  const core::RankCache::PackedEntries& packed = *packed_or;
  const bool compressed = !packed.kinds.empty();
  ContainerWriter writer(kRankCacheMagic);
  writer.AddOwned("meta",
                  BuildRankCacheMeta(cache, packed.masses.size(), compressed));
  writer.Add<uint64_t>("rc_offsets", packed.offsets);
  writer.Add<char>("rc_heap", std::span<const char>(packed.heap.data(),
                                                    packed.heap.size()));
  writer.Add<double>("rc_masses", packed.masses);
  writer.Add<float>("rc_scores", packed.scores);
  if (compressed) {
    writer.Add<uint8_t>("rc_kinds", packed.kinds);
    writer.Add<core::RankCache::PackedCompressedDesc>("rc_cdesc",
                                                      packed.descs);
    writer.Add<uint32_t>("rc_chead_nodes", packed.head_nodes);
    writer.Add<float>("rc_chead_scores", packed.head_scores);
    writer.Add<uint32_t>("rc_ctail_nodes", packed.tail_nodes);
    writer.Add<uint16_t>("rc_ctail_quants", packed.tail_quants);
  }
  return writer.WriteTo(path);
}

StatusOr<core::RankCache> OpenMappedRankCache(
    const std::string& path, const MappedDatasetOptions& options) {
  auto container = MappedContainer::Open(path, kRankCacheMagic);
  if (!container.ok()) return container.status();
  // The container object dies with this scope, but the sections only
  // alias the mapping, whose lifetime is the shared MmapFile.
  const MappedContainer c = std::move(*container);
  const std::shared_ptr<const MmapFile> keepalive = c.file();

  auto meta_bytes = c.Bytes("meta");
  if (!meta_bytes.ok()) return meta_bytes.status();
  ByteReader reader(*meta_bytes);
  uint32_t version = 0;
  ORX_RETURN_IF_ERROR(reader.ReadU32(&version, "meta version"));
  if (version != kMetaVersion &&
      version != kRankCacheCompressedMetaVersion) {
    return DataLossError("unsupported rank cache meta version " +
                         std::to_string(version));
  }
  uint64_t num_nodes = 0, fingerprint = 0, num_terms = 0;
  text::Bm25Params bm25;
  ORX_RETURN_IF_ERROR(reader.ReadU64(&num_nodes, "node count"));
  if (num_nodes > kRankCacheNodeLimit) {
    return DataLossError("implausible rank cache node count " +
                         std::to_string(num_nodes));
  }
  ORX_RETURN_IF_ERROR(reader.ReadU64(&fingerprint, "rates fingerprint"));
  ORX_RETURN_IF_ERROR(reader.ReadDouble(&bm25.k1, "BM25 k1"));
  ORX_RETURN_IF_ERROR(reader.ReadDouble(&bm25.b, "BM25 b"));
  ORX_RETURN_IF_ERROR(reader.ReadDouble(&bm25.k3, "BM25 k3"));
  ORX_RETURN_IF_ERROR(reader.ReadU64(&num_terms, "term count"));

  auto offsets = c.Section<uint64_t>("rc_offsets");
  if (!offsets.ok()) return offsets.status();
  auto heap = c.Section<char>("rc_heap");
  if (!heap.ok()) return heap.status();
  auto masses = c.Section<double>("rc_masses");
  if (!masses.ok()) return masses.status();
  auto scores = c.Section<float>("rc_scores");
  if (!scores.ok()) return scores.status();
  if (masses->size() != num_terms) {
    return DataLossError("rank cache mass section disagrees with the meta "
                         "term count");
  }

  // Compressed sections are presence-based: a version-1 container simply
  // has none and loads all-dense through the same path.
  core::RankCache::CompressedParts parts;
  if (c.Has("rc_kinds")) {
    auto kinds = c.Section<uint8_t>("rc_kinds");
    if (!kinds.ok()) return kinds.status();
    auto descs = c.Section<core::RankCache::PackedCompressedDesc>("rc_cdesc");
    if (!descs.ok()) return descs.status();
    auto head_nodes = c.Section<uint32_t>("rc_chead_nodes");
    if (!head_nodes.ok()) return head_nodes.status();
    auto head_scores = c.Section<float>("rc_chead_scores");
    if (!head_scores.ok()) return head_scores.status();
    auto tail_nodes = c.Section<uint32_t>("rc_ctail_nodes");
    if (!tail_nodes.ok()) return tail_nodes.status();
    auto tail_quants = c.Section<uint16_t>("rc_ctail_quants");
    if (!tail_quants.ok()) return tail_quants.status();
    parts.kinds = *kinds;
    parts.descs = *descs;
    parts.head_nodes = *head_nodes;
    parts.head_scores = *head_scores;
    parts.tail_nodes = *tail_nodes;
    parts.tail_quants = *tail_quants;
  }

  if (options.deep_validate) {
    ORX_RETURN_IF_ERROR(c.VerifyHashes());
  }
  auto cache = core::RankCache::FromParts(
      static_cast<size_t>(num_nodes), fingerprint, bm25, *heap, *offsets,
      *masses, *scores, parts, keepalive);
  if (!cache.ok()) return cache.status();
  if (options.deep_validate) {
    ORX_RETURN_IF_ERROR(cache->ValidateInvariants());
  }
  return cache;
}

}  // namespace orx::io
