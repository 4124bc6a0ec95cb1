#ifndef ORX_GRAPH_SPMV_LAYOUT_H_
#define ORX_GRAPH_SPMV_LAYOUT_H_

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "graph/authority_graph.h"
#include "graph/transfer_rates.h"

namespace orx::graph {

/// The rates-independent half of the fused SpMV layout: the graph's
/// in-adjacency resliced into SELL-8 (sliced ELLPACK) form, shareable
/// across every TransferRates vector of the same graph.
///
/// Nodes are stably sorted by descending in-degree (row_order) and taken
/// in chunks of kChunkRows rows. Each chunk is stored column-major and
/// padded to its longest row:
///
///   slot(c, j, r) = chunk_offsets[c] + j * kChunkRows + r
///
/// holds in-edge j of row r's node (row_order[c * kChunkRows + r]), so a
/// pull pass walks j with one independent accumulator per row — full
/// 8-way instruction-level parallelism no matter how short the rows are,
/// where a CSR row loop serializes on each node's sum. The degree sort
/// keeps rows of a chunk similar, so padding is ~1% on authority graphs.
/// Padding slots hold source 0 with weight 0.0: they add exactly +0.0 in
/// edge order, leaving per-node sums identical to a sequential
/// per-node accumulation.
struct SellStructure {
  /// Rows per chunk == accumulator lanes in the pull kernel.
  static constexpr size_t kChunkRows = 8;

  /// Node ids in processing order; row i of the layout is node
  /// row_order[i]. Stable descending-in-degree sort of [0, n).
  ArrayRef<uint32_t> row_order;
  /// Inverse of row_order: node v is row node_row[v].
  ArrayRef<uint32_t> node_row;
  /// Cumulative padded slot counts per chunk (num_chunks() + 1 entries).
  ArrayRef<uint64_t> chunk_offsets;
  /// Edge sources in SELL order; padding slots are 0.
  ArrayRef<uint32_t> sources;
  /// Edge sources as row indices (node_row[sources[slot]]): the SpMM
  /// block pass keeps its iterates in row order so its writeback is a
  /// sequential stream, and gathers through this array instead of
  /// sources. Padding slots are node_row[0].
  ArrayRef<uint32_t> sources_row;
  /// Number of real rows (== the graph's node count).
  size_t num_rows = 0;

  SellStructure() = default;
  explicit SellStructure(const AuthorityGraph& graph);

  /// Wraps a pre-built SELL structure zero-copy (the ORXD2 mmap path).
  /// Checks array shapes and chunk_offsets monotonicity/alignment; the
  /// per-slot bijection and source-bounds checks live in the structural
  /// validator (graph/validate.h), which deep validation runs in full.
  static StatusOr<SellStructure> FromParts(
      size_t num_rows, std::span<const uint32_t> row_order,
      std::span<const uint32_t> node_row,
      std::span<const uint64_t> chunk_offsets,
      std::span<const uint32_t> sources,
      std::span<const uint32_t> sources_row,
      std::shared_ptr<const void> keepalive);

  size_t num_chunks() const { return chunk_offsets.size() - 1; }
  uint64_t padded_slots() const { return chunk_offsets.back(); }
};

/// Rate-resolved structure-of-arrays view of an AuthorityGraph's
/// in-adjacency — the layout the fused pull SpMV of the power iteration
/// streams (docs/power_iteration.md). For the SELL slot holding in-edge
/// e of node v:
///
///   structure().sources[slot] = u, the source node of the edge u -> v
///   weights()[slot]           = alpha(rate_index) * inv_out_deg  (Eq. 1)
///
/// i.e. the per-edge coefficient is materialized once per TransferRates
/// vector instead of being re-resolved (slot gather + float conversion)
/// per edge per iteration. Weights are stored as double so the fused
/// kernel is interchangeable with the push/pull reference kernels to
/// <= 1e-12 L-inf; with 4-byte sources a layout adds ~12 B/edge, and the
/// structure half (sources + row order + chunk offsets) is shared across
/// layouts of the same graph — only the weight array is per-rates.
///
/// A layout references nothing inside the graph after construction, but
/// the cache binding below still requires the graph to outlive the cache.
class FusedLayout {
 public:
  /// Builds the layout for (graph, rates). `structure` may share the
  /// SELL structure of a previous layout of the same graph; pass nullptr
  /// to build it.
  FusedLayout(const AuthorityGraph& graph, const TransferRates& rates,
              std::shared_ptr<const SellStructure> structure = nullptr);

  /// Wraps a pre-built weight array zero-copy against an existing
  /// structure (the ORXD2 mmap path). `fingerprint` must be the
  /// Fingerprint() of the TransferRates the weights were resolved with —
  /// it is the FusedWeightCache key, so a mismatch would serve wrong
  /// weights forever.
  static StatusOr<FusedLayout> FromParts(
      std::shared_ptr<const SellStructure> structure,
      std::span<const double> weights, uint64_t fingerprint,
      std::shared_ptr<const void> keepalive);

  /// Fingerprint of the TransferRates baked into weights().
  uint64_t rates_fingerprint() const { return rates_fingerprint_; }

  size_t num_nodes() const { return structure_->num_rows; }

  const SellStructure& structure() const { return *structure_; }
  /// Fused edge coefficients in SELL order; padding slots are 0.0.
  const double* weights() const { return weights_.data(); }
  /// weights() with its extent (== structure().padded_slots() for a
  /// well-formed layout — the structural validator checks exactly that).
  std::span<const double> weight_span() const { return weights_; }

  /// The structure half of the layout, shareable across rate vectors.
  const std::shared_ptr<const SellStructure>& shared_structure() const {
    return structure_;
  }

  size_t MemoryFootprintBytes() const {
    return structure_->sources.size() * sizeof(uint32_t) +
           structure_->sources_row.size() * sizeof(uint32_t) +
           structure_->row_order.size() * sizeof(uint32_t) +
           structure_->node_row.size() * sizeof(uint32_t) +
           structure_->chunk_offsets.size() * sizeof(uint64_t) +
           weights_.size() * sizeof(double);
  }

 private:
  FusedLayout() = default;

  std::shared_ptr<const SellStructure> structure_;
  ArrayRef<double> weights_;
  uint64_t rates_fingerprint_ = 0;
};

/// Minimal C++17 allocator that over-aligns every allocation to kAlign
/// bytes via the aligned operator new. BlockVector uses it to pin its
/// storage to cache-line alignment: with 8 lanes a row's block is
/// exactly 64 bytes, so an aligned base makes every gather in the SpMM
/// pass touch one cache line instead of straddling two (measured ~1.5x
/// on the block pass — std::allocator only guarantees 16 bytes).
template <class T, size_t kAlign>
struct AlignedAllocator {
  static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0);
  using value_type = T;
  // Spelled out because allocator_traits' default rebind only rewrites
  // type parameters, and kAlign is a non-type one.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(kAlign));
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, kAlign>&) const {
    return true;
  }
};

/// A dense block of B power-iteration iterates stored lane-major per row
/// in SELL *row order*: lane l of row r lives at values[r * lanes + l],
/// where row r holds node row_order[r]. The B scores of one row are
/// contiguous, so a gather of a source row's scores is one
/// cache-line-friendly read serving all B lanes (B separate vectors
/// would gather B scattered lines per edge), and keeping rows — not
/// nodes — as the major index makes the SpMM writeback a purely
/// sequential stream. CopyLaneOut/SetLane apply the row permutation at
/// the block boundary. Used by ObjectRankEngine::ComputeBatch to run B
/// queries through one streaming read of structure + weights per pass.
struct BlockVector {
  using Storage = std::vector<double, AlignedAllocator<double, 64>>;

  size_t num_nodes = 0;
  size_t lanes = 0;
  /// num_nodes * lanes values, row-major (SELL row order), base
  /// cache-line aligned.
  Storage values;

  BlockVector() = default;
  BlockVector(size_t num_nodes, size_t lanes)
      : num_nodes(num_nodes), lanes(lanes), values(num_nodes * lanes, 0.0) {}

  double* data() { return values.data(); }
  const double* data() const { return values.data(); }

  double& At(size_t row, size_t lane) { return values[row * lanes + lane]; }
  double At(size_t row, size_t lane) const {
    return values[row * lanes + lane];
  }

  /// Copies lane `lane` out into a node-indexed vector of num_nodes
  /// entries: out[row_order[r]] = At(r, lane).
  void CopyLaneOut(size_t lane, std::span<const uint32_t> row_order,
                   std::vector<double>& out) const;
  /// Fills lane `lane` from a node-indexed array of num_nodes entries:
  /// At(r, lane) = in[row_order[r]].
  void SetLane(size_t lane, std::span<const uint32_t> row_order,
               const double* in);
};

/// One fused pull SpMM pass over the SELL chunk range [begin, end) of a
/// `lanes`-wide block: for every row r in the range and every lane l,
///
///   next[r*lanes + l] = d * sum_j cur[src_j*lanes + l] * w_j
///                       + bvec[r*lanes + l]
///
/// with per-lane L1 residuals |next - cur| summed into l1_out[0..lanes).
/// `sources` must be SellStructure::sources_row (row-space), and `cur`,
/// `next`, and `bvec` are row-major BlockVector storage (bvec = the
/// per-lane dense jump vectors (1-d)*s-hat, permuted into row order).
/// `bvec_rowmask` is an optional per-row byte mask: rows whose mask byte
/// is 0 must have bvec == +0.0 in every lane, and the kernel skips their
/// bvec load — since power iterates are non-negative, d*sum is never
/// -0.0 and dropping "+ 0.0" cannot change a bit. Pass nullptr to load
/// bvec unconditionally (required if iterates may be negative).
///
/// Lane l's sum accumulates the same operands in the same SELL edge
/// order as the single-vector pull pass, and its residual partial covers
/// the same chunks in the same order, so each lane of a block solve is
/// bit-identical to the corresponding single-vector solve — the batch
/// guarantee tests/batch_kernel_test.cc pins down. To keep that promise
/// across instruction sets, every code path (scalar tiles, and the
/// runtime-dispatched AVX-512/AVX2 kernels on x86-64) performs plain
/// IEEE mul-then-add: spmv_layout.cc is compiled with -ffp-contract=off
/// so the compiler cannot fuse those into FMAs.
void FusedPullBlockRange(const uint64_t* chunk_offsets,
                         const uint32_t* sources, const double* weights,
                         const double* bvec, const uint8_t* bvec_rowmask,
                         double d, const double* cur, double* next,
                         size_t lanes, size_t begin, size_t end,
                         size_t num_rows, double* l1_out);

/// Splits [0, num_items) into `parts` contiguous ranges balanced by
/// cumulative weight (`offsets` is any CSR-style cumulative array with
/// num_items + 1 entries). Returns parts + 1 ascending boundaries with
/// front() == 0 and back() == num_items; range t is
/// [result[t], result[t+1]). O(parts * log n).
std::vector<size_t> BalancedPartition(std::span<const uint64_t> offsets,
                                      size_t parts);

/// Thread-safe memo of FusedLayouts keyed by TransferRates fingerprint,
/// plus the graph-level state every layout shares: the SELL structure and
/// the balanced chunk partitions. One cache serves one graph (bound on
/// first use; rebinding is a programming error and CHECK-fails).
///
/// Lifecycle: steady-state serving runs one rates vector, so Get() is a
/// lock + hash lookup after the first call; reformulation retraining
/// produces a new rates vector per feedback round, whose layout replaces
/// the least-recently-used entry once the small capacity is reached —
/// stale weights can never be returned because the fingerprint is the
/// key. The cache is logically immutable (a memo of pure functions of
/// graph + rates), so sharing it from an otherwise-immutable
/// ServeSnapshot is safe.
class FusedWeightCache {
 public:
  /// Layouts retained before the least-recently-used one is evicted.
  static constexpr size_t kMaxLayouts = 4;

  /// Returns the layout for (graph, rates), building and memoizing it on
  /// first use for this rates fingerprint.
  std::shared_ptr<const FusedLayout> Get(const AuthorityGraph& graph,
                                         const TransferRates& rates);

  /// Pre-populates the cache with an externally built layout (the ORXD2
  /// mmap path): binds `graph`, adopts the layout's SELL structure as the
  /// shared one, and memoizes the layout under its rates fingerprint.
  /// The first Get() for the serving rates then returns the mmap-backed
  /// layout instead of rebuilding seconds of SELL + weight resolution.
  void Seed(const AuthorityGraph& graph,
            std::shared_ptr<const FusedLayout> layout);

  /// Returns the `parts`-way balanced partition of the graph's SELL
  /// chunks (boundaries in chunk indices), computed once per
  /// (graph, parts).
  std::shared_ptr<const std::vector<size_t>> Partition(
      const AuthorityGraph& graph, size_t parts);

  /// Number of resident layouts.
  size_t size() const;

  /// Drops every memoized layout, structure, and partition (keeps the
  /// graph binding).
  void Clear();

 private:
  struct Slot {
    uint64_t fingerprint = 0;
    uint64_t last_used = 0;
    std::shared_ptr<const FusedLayout> layout;
  };

  void BindLocked(const AuthorityGraph& graph) ORX_REQUIRES(mu_);
  const std::shared_ptr<const SellStructure>& StructureLocked(
      const AuthorityGraph& graph) ORX_REQUIRES(mu_);

  mutable Mutex mu_{"fused_cache.mu"};
  const AuthorityGraph* graph_ ORX_GUARDED_BY(mu_) = nullptr;  // first use
  uint64_t tick_ ORX_GUARDED_BY(mu_) = 0;
  std::vector<Slot> layouts_ ORX_GUARDED_BY(mu_);
  std::shared_ptr<const SellStructure> structure_ ORX_GUARDED_BY(mu_);
  std::vector<std::pair<size_t, std::shared_ptr<const std::vector<size_t>>>>
      partitions_ ORX_GUARDED_BY(mu_);
};

}  // namespace orx::graph

#endif  // ORX_GRAPH_SPMV_LAYOUT_H_
