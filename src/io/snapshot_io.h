#ifndef ORX_IO_SNAPSHOT_IO_H_
#define ORX_IO_SNAPSHOT_IO_H_

#include <memory>
#include <optional>
#include <string>

#include "core/rank_cache.h"
#include "datasets/dataset.h"
#include "graph/authority_graph.h"
#include "graph/data_graph.h"
#include "graph/schema_graph.h"
#include "graph/spmv_layout.h"
#include "graph/transfer_rates.h"
#include "io/container.h"
#include "serve/snapshot.h"
#include "text/corpus.h"

namespace orx::io {

/// ORXD2: a complete serving dataset as one mmap-friendly container —
/// data graph (packed attributes + text heap), authority CSR (both
/// halves), SELL structure, fused weights for the serving rates, corpus
/// CSR + term heap, and a meta blob (name, schema, rates, avdl). It is
/// the only binary dataset format (the TSV of io/graph_tsv is for
/// editing by hand): nothing is re-parsed or re-derived on load, so an
/// attach is a handful of shape checks over mmap'd arrays —
/// milliseconds, independent of dataset size — and the page cache
/// streams the rest on demand.

/// Writes `dataset` (finalized) with its serving `rates` to `path`.
/// Builds the SELL structure + fused weights so the loader gets them for
/// free. O(|E|) time; the big arrays are written straight from the
/// dataset's storage without duplication.
Status WriteDatasetContainer(const datasets::Dataset& dataset,
                             const graph::TransferRates& rates,
                             const std::string& path);

struct MappedDatasetOptions {
  /// Full O(|E|) validation on attach: section hashes, per-edge schema
  /// conformance, CSR cross-consistency, SELL bijection, corpus bounds.
  /// The fast path (false) does only the O(|V|)-ish shape checks the
  /// factories run — trusted snapshots produced by our own writer.
  /// orx_serve and `orx_cli validate` keep this on; benchmarks measuring
  /// attach latency turn it off.
  bool deep_validate = true;
  /// Apply madvise hints: WILLNEED on the small hot sections (offsets,
  /// meta), SEQUENTIAL on the big SpMV-streamed arrays (SELL sources /
  /// weights / edges) so an out-of-core power iteration streams the file
  /// through the page cache instead of thrashing readahead.
  bool advise = true;
};

/// A dataset attached zero-copy to a mapped ORXD2 container. Owns the
/// mapping plus the small rebuilt-owned pieces (schema, vocabulary);
/// every large array in the graphs/corpus borrows file-backed storage.
/// The attached parts form an ordinary datasets::Dataset (dataset()), so
/// code written against Dataset runs on a mapping unchanged. Immutable;
/// share via shared_ptr (SnapshotFromMapped aliases it).
class MappedDataset {
 private:
  /// Passkey: makes the public constructor callable only from
  /// OpenMappedDataset (via make_shared).
  struct Private {};

 public:
  explicit MappedDataset(Private) {}

  /// The attached parts; finalized. Alias it with
  /// std::shared_ptr<const datasets::Dataset>(mapped, &mapped->dataset())
  /// to keep the mapping alive.
  const datasets::Dataset& dataset() const { return *dataset_; }
  const std::string& name() const { return dataset_->name(); }
  const graph::SchemaGraph& schema() const { return dataset_->schema(); }
  const graph::DataGraph& data() const { return dataset_->data(); }
  const graph::AuthorityGraph& authority() const {
    return dataset_->authority();
  }
  const text::Corpus& corpus() const { return dataset_->corpus(); }
  const graph::TransferRates& rates() const { return rates_; }
  /// The mmap-backed fused layout for rates() (shared SELL structure).
  const std::shared_ptr<const graph::FusedLayout>& layout() const {
    return layout_;
  }
  const MappedContainer& container() const { return container_; }

 private:
  friend StatusOr<std::shared_ptr<MappedDataset>> OpenMappedDataset(
      const std::string& path, const MappedDatasetOptions& options);

  MappedContainer container_;
  /// Set once every part has attached; OpenMappedDataset never hands out
  /// a MappedDataset without it.
  std::optional<datasets::Dataset> dataset_;
  graph::TransferRates rates_;
  std::shared_ptr<const graph::SellStructure> structure_;
  std::shared_ptr<const graph::FusedLayout> layout_;
};

/// Maps and attaches an ORXD2 container. Fast path: O(shape checks);
/// with options.deep_validate also one full validation pass (see above).
StatusOr<std::shared_ptr<MappedDataset>> OpenMappedDataset(
    const std::string& path,
    const MappedDatasetOptions& options = MappedDatasetOptions());

/// Builds a ServeSnapshot whose graph components alias `mapped` and
/// whose fused-weight cache is pre-seeded with the mmap-backed layout —
/// the first query under the serving rates streams weights straight from
/// the file instead of re-resolving them.
serve::ServeSnapshot SnapshotFromMapped(
    std::shared_ptr<const MappedDataset> mapped);

/// ORXC2: a precomputed RankCache as a container — term heap + offsets,
/// per-term masses, and the dense terms x nodes float score matrix
/// (the dominant payload, attached zero-copy), plus the compressed-entry
/// sections when the cache holds any. It is the only on-disk rank-cache
/// format. Returns kInternal, naming the term, if a dense entry's score
/// vector length disagrees with num_nodes() (see
/// RankCache::PackEntries); nothing is written then.
Status WriteRankCacheContainer(const core::RankCache& cache,
                               const std::string& path);

/// Maps and attaches an ORXC2 container. With options.deep_validate the
/// cache's full invariant check (every score finite and non-negative)
/// runs on attach; note that pass touches every page of the score
/// matrix.
StatusOr<core::RankCache> OpenMappedRankCache(
    const std::string& path,
    const MappedDatasetOptions& options = MappedDatasetOptions());

}  // namespace orx::io

#endif  // ORX_IO_SNAPSHOT_IO_H_
