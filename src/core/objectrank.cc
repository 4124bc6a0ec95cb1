#include "core/objectrank.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/mutex.h"
#include "common/numa.h"
#include "common/thread_pool.h"

namespace orx::core {
namespace {

// Work-based clamp of the fused kernel's parallelism: one worker per this
// many in-edges, so tiny graphs skip dispatch entirely and dense small-n
// graphs (where the old node-count clamp collapsed to one thread) still
// fan out.
constexpr size_t kMinEdgesPerThread = 16384;

// The fused kernel pushes while nnz * kPushDensityDenom < n and switches
// permanently to the pull SpMV once the iterate is denser than 1/8.
constexpr size_t kPushDensityDenom = 8;

// The pool the fused pull pass runs on: spawned once per process, shared
// by every engine. Sized one below the hardware thread count because the
// caller executes the first partition itself. Intentionally leaked so
// exiting threads never race static destruction.
//
// On multi-socket machines each worker is pinned to a NUMA node at
// spawn, in contiguous node-major blocks (common/numa.h). Worker t runs
// partition t + 1 of the edge-balanced SELL partition (the caller keeps
// partition 0), so consecutive partitions — covering consecutive chunk
// ranges of the structure — execute on the same socket across every
// pass: the pages a partition streams are always re-read by the node
// whose first touch placed them. Single-node topologies skip the pin.
ThreadPool& SpmvPool() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(1, ThreadPool::HardwareThreads() - 1),
      [](size_t worker) {
        const NumaTopology& topo = Topology();
        if (topo.num_nodes() <= 1) return;
        const size_t total = std::max<size_t>(
            2, ThreadPool::HardwareThreads());  // workers + the caller
        PinCurrentThreadToNode(NodeForWorker(worker + 1, total, topo));
      });
  return *pool;
}

// Per-pass completion latch. Heap-shared with the submitted tasks so the
// notifying task can outlive the waiting stack frame safely; unlike
// ThreadPool::Wait it only waits for THIS pass's tasks, so concurrent
// Computes sharing the pool never wait on each other's work.
struct Completion {
  explicit Completion(size_t n) : remaining(n) {}
  Mutex mu{"objectrank.completion"};
  CondVar cv;
  size_t remaining ORX_GUARDED_BY(mu);

  void Done() ORX_LOCKS_EXCLUDED(mu) {
    bool last;
    {
      MutexLock lock(mu);
      last = (--remaining == 0);
    }
    if (last) cv.Signal();
  }
  void Wait() ORX_LOCKS_EXCLUDED(mu) {
    MutexLock lock(mu);
    while (remaining != 0) cv.Wait(mu);
  }
};

// One fused pull pass over the SELL chunk range [begin, end):
// next = d * (A^T cur) + bvec with the L1 residual computed inline. A
// chunk is 8 rows stored column-major, so the inner loop keeps one
// accumulator per row — 8 independent dependency chains that let the
// score gathers and multiplies overlap, where a CSR row loop serializes
// on each node's running sum (one edge per add latency). No software
// prefetch: the gathers mostly hit L2 and explicit prefetches only steal
// load-port slots (measured slower). Each row's sum accumulates in
// in-edge order with padding contributing exactly +0.0, so scores are
// bit-identical for any partitioning and any thread count.
void FusedPullRange(const uint64_t* chunk_offsets, const uint32_t* row_order,
                    const uint32_t* sources, const double* weights,
                    const double* bvec, double d, const double* cur,
                    double* next, size_t begin, size_t end, size_t num_rows,
                    double* l1_out) {
  constexpr size_t kRows = graph::SellStructure::kChunkRows;
  double l1 = 0.0;
  for (size_t c = begin; c < end; ++c) {
    const uint64_t base = chunk_offsets[c];
    const uint64_t len = (chunk_offsets[c + 1] - base) / kRows;
    const uint32_t* s = sources + base;
    const double* w = weights + base;
    double sum[kRows] = {0.0};
    for (uint64_t j = 0; j < len; ++j, s += kRows, w += kRows) {
      sum[0] += cur[s[0]] * w[0];
      sum[1] += cur[s[1]] * w[1];
      sum[2] += cur[s[2]] * w[2];
      sum[3] += cur[s[3]] * w[3];
      sum[4] += cur[s[4]] * w[4];
      sum[5] += cur[s[5]] * w[5];
      sum[6] += cur[s[6]] * w[6];
      sum[7] += cur[s[7]] * w[7];
    }
    const size_t row0 = c * kRows;
    const size_t rows = std::min(kRows, num_rows - row0);
    for (size_t r = 0; r < rows; ++r) {
      const uint32_t v = row_order[row0 + r];
      const double nv = d * sum[r] + bvec[v];
      l1 += std::fabs(nv - cur[v]);
      next[v] = nv;
    }
  }
  *l1_out = l1;
}

// The fused kernel's parallelism for a graph of m edges: the requested
// thread count clamped by available work.
int FusedThreadCount(const ObjectRankOptions& options, size_t m) {
  return static_cast<int>(std::max<size_t>(
      1, std::min<size_t>(
             static_cast<size_t>(std::max(1, options.num_threads)),
             m / kMinEdgesPerThread + 1)));
}

// Counts cur's nonzeros and, when the iterate is sparse enough for the
// push phase, fills `frontier` with them in ascending node order.
// Returns true when the iterate is already dense.
bool InitFrontier(const std::vector<double>& cur,
                  std::vector<uint32_t>& frontier, size_t& nnz) {
  const size_t n = cur.size();
  nnz = 0;
  for (size_t v = 0; v < n; ++v) {
    if (cur[v] != 0.0) ++nnz;
  }
  const bool dense = nnz * kPushDensityDenom >= n;
  if (!dense) {
    frontier.reserve(nnz);
    for (size_t v = 0; v < n; ++v) {
      if (cur[v] != 0.0) frontier.push_back(static_cast<uint32_t>(v));
    }
  }
  return dense;
}

// One frontier-push iteration: next = d * scatter(cur over the frontier's
// out-edges) + jump * s-hat, with the L1 residual computed inline and the
// frontier + nnz rebuilt from next. The frontier is kept in ascending
// node order, so accumulation matches the sequential push reference.
// Shared by the single-query and batch fused kernels, so a batched lane's
// sparse phase is the identical code path (per-lane bit-identity).
double PushIteration(const graph::AuthorityGraph& graph,
                     const std::vector<double>& alpha, const BaseSet& base,
                     double d, double jump, const std::vector<double>& cur,
                     std::vector<double>& next,
                     std::vector<uint32_t>& frontier, size_t& nnz) {
  const size_t n = next.size();
  std::fill(next.begin(), next.end(), 0.0);
  for (const uint32_t u : frontier) {
    const double dru = d * cur[u];
    for (const graph::AuthorityEdge& e : graph.OutEdges(u)) {
      next[e.target] +=
          dru * alpha[e.rate_index] * static_cast<double>(e.inv_out_deg);
    }
  }
  for (const auto& [node, w] : base.entries) next[node] += jump * w;
  double l1 = 0.0;
  nnz = 0;
  frontier.clear();
  for (size_t v = 0; v < n; ++v) {
    l1 += std::fabs(next[v] - cur[v]);
    if (next[v] != 0.0) {
      ++nnz;
      frontier.push_back(static_cast<uint32_t>(v));
    }
  }
  return l1;
}

// The fused power iteration: frontier push while sparse, then the
// rate-resolved pull SpMV on the persistent pool.
void RunFused(const graph::AuthorityGraph& graph,
              graph::FusedWeightCache& cache,
              const graph::TransferRates& rates, const BaseSet& base,
              const ObjectRankOptions& options, std::vector<double>& cur,
              std::vector<double>& next, ObjectRankResult& result) {
  const size_t n = graph.num_nodes();
  const size_t m = graph.num_edges();
  const std::vector<double>& alpha = rates.slots();
  const double d = options.damping;
  const double jump = 1.0 - d;
  const int threads = FusedThreadCount(options, m);

  size_t nnz = 0;
  std::vector<uint32_t> frontier;
  bool dense = InitFrontier(cur, frontier, nnz);

  // Pull-phase state, materialized on the first dense iteration: the
  // fused layout + edge-balanced partition (memoized in the cache) and
  // the dense jump vector, which folds the base-set addition into the
  // pass so the residual can be computed inline.
  std::shared_ptr<const graph::FusedLayout> layout;
  std::shared_ptr<const std::vector<size_t>> bounds;
  std::vector<double> bvec;
  std::vector<double> partials;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.cancel && options.cancel()) {
      result.cancelled = true;
      break;
    }
    double l1 = 0.0;
    if (!dense) {
      // Frontier push: scatter only the active nodes' mass.
      l1 = PushIteration(graph, alpha, base, d, jump, cur, next, frontier,
                         nnz);
      if (nnz * kPushDensityDenom >= n) {
        dense = true;  // sticky: authority mass never re-sparsifies
        frontier = {};
      }
    } else {
      if (layout == nullptr) {
        layout = cache.Get(graph, rates);
        bounds = cache.Partition(graph, static_cast<size_t>(threads));
        partials.assign(static_cast<size_t>(threads), 0.0);
        bvec.assign(n, 0.0);
        for (const auto& [node, w] : base.entries) bvec[node] = jump * w;
      }
      const graph::SellStructure& sell = layout->structure();
      const uint64_t* coff = sell.chunk_offsets.data();
      const uint32_t* order = sell.row_order.data();
      const uint32_t* src = sell.sources.data();
      const double* w = layout->weights();
      const double* c = cur.data();
      double* nx = next.data();
      const std::vector<size_t>& b = *bounds;
      if (threads <= 1) {
        FusedPullRange(coff, order, src, w, bvec.data(), d, c, nx, 0,
                       sell.num_chunks(), n, partials.data());
      } else {
        auto done = std::make_shared<Completion>(
            static_cast<size_t>(threads) - 1);
        for (int t = 1; t < threads; ++t) {
          double* slot = &partials[static_cast<size_t>(t)];
          const size_t begin = b[static_cast<size_t>(t)];
          const size_t end = b[static_cast<size_t>(t) + 1];
          const double* bv = bvec.data();
          SpmvPool().Submit([=] {
            FusedPullRange(coff, order, src, w, bv, d, c, nx, begin, end, n,
                           slot);
            done->Done();
          });
        }
        // The caller works the first partition instead of idling.
        FusedPullRange(coff, order, src, w, bvec.data(), d, c, nx, b[0],
                       b[1], n, partials.data());
        done->Wait();
      }
      for (const double p : partials) l1 += p;
    }
    cur.swap(next);
    result.iterations = iter;
    if (l1 < options.epsilon) {
      result.converged = true;
      break;
    }
  }
}

// One (possibly parallel) SpMM pass over the whole SELL structure:
// next = d * A^T cur + bvec per lane, node-major blocks. Mirrors the
// dispatch of RunFused's single-vector pass exactly — same balanced
// partition, caller runs partition 0, per-pass completion latch — and
// sums each lane's residual partials in partition order, so lane l's
// residual is bit-identical to the single-vector kernel at the same
// thread count. partials must hold threads * lanes doubles.
void RunBlockPass(const graph::FusedLayout& layout,
                  const std::vector<size_t>& bounds, int threads,
                  const double* bvec, const uint8_t* bmask, double d,
                  const double* cur, double* next, size_t lanes, size_t n,
                  std::vector<double>& partials, std::vector<double>& l1) {
  const graph::SellStructure& sell = layout.structure();
  const uint64_t* coff = sell.chunk_offsets.data();
  const uint32_t* src = sell.sources_row.data();
  const double* w = layout.weights();
  if (threads <= 1) {
    graph::FusedPullBlockRange(coff, src, w, bvec, bmask, d, cur, next,
                               lanes, 0, sell.num_chunks(), n,
                               partials.data());
  } else {
    auto done =
        std::make_shared<Completion>(static_cast<size_t>(threads) - 1);
    for (int t = 1; t < threads; ++t) {
      double* slot = &partials[static_cast<size_t>(t) * lanes];
      const size_t begin = bounds[static_cast<size_t>(t)];
      const size_t end = bounds[static_cast<size_t>(t) + 1];
      SpmvPool().Submit([=] {
        graph::FusedPullBlockRange(coff, src, w, bvec, bmask, d, cur, next,
                                   lanes, begin, end, n, slot);
        done->Done();
      });
    }
    // The caller works the first partition instead of idling.
    graph::FusedPullBlockRange(coff, src, w, bvec, bmask, d, cur, next,
                               lanes, bounds[0], bounds[1], n,
                               partials.data());
    done->Wait();
  }
  l1.assign(lanes, 0.0);
  for (int t = 0; t < threads; ++t) {
    const double* slot = &partials[static_cast<size_t>(t) * lanes];
    for (size_t l = 0; l < lanes; ++l) l1[l] += slot[l];
  }
}

// The batched fused power iteration: every lane runs the identical scalar
// frontier push while sparse; lanes that cross the density threshold join
// a shared node-major block advanced by one SpMM pass per iteration, so
// structure + weights stream once for all dense lanes. Lanes retire
// (converge / hit max_iterations) individually and compact out of the
// block; the survivors keep iterating at the narrower width. A tripped
// cancellation hook retires every lane at once.
void RunFusedBatch(const graph::AuthorityGraph& graph,
                   graph::FusedWeightCache& cache,
                   const graph::TransferRates& rates,
                   const std::vector<BatchQuery>& queries,
                   const ObjectRankOptions& options,
                   std::vector<ObjectRankResult>& results) {
  const size_t n = graph.num_nodes();
  const size_t m = graph.num_edges();
  const std::vector<double>& alpha = rates.slots();
  const double d = options.damping;
  const double jump = 1.0 - d;
  const int threads = FusedThreadCount(options, m);

  enum class Phase { kSparse, kDense, kRetired };
  struct Lane {
    Phase phase = Phase::kSparse;
    std::vector<double> cur;  // scalar iterate while sparse
    std::vector<double> next;
    std::vector<uint32_t> frontier;
    size_t nnz = 0;
  };
  std::vector<Lane> lanes(queries.size());
  size_t active = queries.size();

  // Dense-phase state. block_ids maps block column -> lane index (join
  // order); the layout and partition are materialized when the first lane
  // goes dense, exactly like the single-query kernel. Block vectors live
  // in SELL row order (see BlockVector) — the permutation is applied
  // when a lane joins and when its scores are copied back out.
  std::vector<size_t> block_ids;
  graph::BlockVector bcur, bnext, bb;
  std::vector<uint8_t> bmask;  // rows where any lane's jump vector != 0
  std::shared_ptr<const graph::FusedLayout> layout;
  std::shared_ptr<const std::vector<size_t>> bounds;
  std::vector<double> partials, block_l1;

  // Rebuilds the block at a new set of columns: kept columns copy over
  // from the old block, joining lanes seed from their scalar iterate and
  // their base set's jump vector. O(n * L) — paid only when membership
  // changes, small next to the per-iteration SpMM itself.
  auto repack = [&](const std::vector<size_t>& new_ids) {
    if (layout == nullptr) {
      layout = cache.Get(graph, rates);
      bounds = cache.Partition(graph, static_cast<size_t>(threads));
    }
    const graph::SellStructure& sell = layout->structure();
    const size_t width = new_ids.size();
    graph::BlockVector ncur(n, width), nb(n, width);
    for (size_t col = 0; col < width; ++col) {
      const size_t id = new_ids[col];
      const auto old = std::find(block_ids.begin(), block_ids.end(), id);
      if (old != block_ids.end()) {
        const size_t old_col = static_cast<size_t>(old - block_ids.begin());
        for (size_t r = 0; r < n; ++r) {
          ncur.At(r, col) = bcur.At(r, old_col);
          nb.At(r, col) = bb.At(r, old_col);
        }
      } else {
        Lane& lane = lanes[id];
        ncur.SetLane(col, sell.row_order, lane.cur.data());
        lane.cur = {};
        lane.next = {};
        for (const auto& [node, w] : queries[id].base->entries) {
          nb.At(sell.node_row[node], col) = jump * w;
        }
      }
    }
    bcur = std::move(ncur);
    bb = std::move(nb);
    bnext = graph::BlockVector(n, width);
    block_ids = new_ids;
    partials.assign(static_cast<size_t>(threads) * width, 0.0);
    // The jump vectors' nonzero rows are exactly the lanes' base-set
    // entries, so the mask rebuild is O(total base entries), not O(n*L).
    // (An entry with weight 0 marks its row anyway — a conservative 1 is
    // always safe; only mask-0 rows must be all +0.0.)
    bmask.assign(n, 0);
    for (const size_t id : new_ids) {
      for (const auto& [node, w] : queries[id].base->entries) {
        bmask[sell.node_row[node]] = 1;
      }
    }
  };

  auto retire = [&](size_t id, bool converged, bool cancelled,
                    std::vector<double>&& scores) {
    results[id].converged = converged;
    results[id].cancelled = cancelled;
    results[id].scores = std::move(scores);
    lanes[id].phase = Phase::kRetired;
    lanes[id] = Lane{};
    lanes[id].phase = Phase::kRetired;
    --active;
  };

  // Initialize every lane the way Compute does, and put the ones that
  // start dense (typically warm starts) straight into the block.
  std::vector<size_t> joins;
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    ORX_CHECK_MSG(q.base != nullptr && !q.base->empty(),
                  "batch lane needs a non-empty base set");
    Lane& lane = lanes[i];
    if (q.warm_start != nullptr && q.warm_start->size() == n) {
      lane.cur = *q.warm_start;
    } else {
      lane.cur.assign(n, 0.0);
      for (const auto& [node, w] : q.base->entries) lane.cur[node] = w;
    }
    lane.next.assign(n, 0.0);
    if (InitFrontier(lane.cur, lane.frontier, lane.nnz)) {
      lane.phase = Phase::kDense;
      joins.push_back(i);
    }
  }
  if (!joins.empty()) repack(joins);

  for (int iter = 1; iter <= options.max_iterations && active > 0; ++iter) {
    // Cancellation, checked once before the iteration like Compute:
    // every remaining lane retires as cancelled with its last completed
    // iterate.
    if (options.cancel && options.cancel()) {
      for (size_t col = 0; col < block_ids.size(); ++col) {
        std::vector<double> scores;
        bcur.CopyLaneOut(col, layout->structure().row_order, scores);
        retire(block_ids[col], /*converged=*/false, /*cancelled=*/true,
               std::move(scores));
      }
      for (size_t i = 0; i < lanes.size(); ++i) {
        if (lanes[i].phase != Phase::kSparse) continue;
        retire(i, /*converged=*/false, /*cancelled=*/true,
               std::move(lanes[i].cur));
      }
      break;
    }

    // Sparse lanes: one scalar frontier-push iteration each.
    joins.clear();
    for (size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = lanes[i];
      if (lane.phase != Phase::kSparse) continue;
      const double l1 = PushIteration(graph, alpha, *queries[i].base, d,
                                      jump, lane.cur, lane.next,
                                      lane.frontier, lane.nnz);
      lane.cur.swap(lane.next);
      results[i].iterations = iter;
      if (l1 < options.epsilon) {
        retire(i, /*converged=*/true, /*cancelled=*/false,
               std::move(lane.cur));
      } else if (lane.nnz * kPushDensityDenom >= n) {
        // Sticky dense switch: the lane joins the block for the next
        // iteration, mirroring the single-query phase transition.
        lane.phase = Phase::kDense;
        lane.frontier = {};
        joins.push_back(i);
      }
    }

    // Dense lanes: one shared SpMM pass advances every block column.
    std::vector<size_t> keep = block_ids;
    if (!block_ids.empty()) {
      RunBlockPass(*layout, *bounds, threads, bb.data(), bmask.data(), d,
                   bcur.data(), bnext.data(), block_ids.size(), n, partials,
                   block_l1);
      std::swap(bcur.values, bnext.values);
      keep.clear();
      for (size_t col = 0; col < block_ids.size(); ++col) {
        const size_t id = block_ids[col];
        results[id].iterations = iter;
        if (block_l1[col] < options.epsilon) {
          std::vector<double> scores;
          bcur.CopyLaneOut(col, layout->structure().row_order, scores);
          retire(id, /*converged=*/true, /*cancelled=*/false,
                 std::move(scores));
        } else {
          keep.push_back(id);
        }
      }
    }
    if (keep.size() != block_ids.size() || !joins.empty()) {
      keep.insert(keep.end(), joins.begin(), joins.end());
      repack(keep);
    }
  }

  // max_iterations exhausted (or all lanes retired): unretired lanes keep
  // their last iterate, converged = false, like Compute.
  for (size_t col = 0; col < block_ids.size(); ++col) {
    const size_t id = block_ids[col];
    if (lanes[id].phase == Phase::kRetired) continue;
    std::vector<double> scores;
    bcur.CopyLaneOut(col, layout->structure().row_order, scores);
    retire(id, /*converged=*/false, /*cancelled=*/false, std::move(scores));
  }
  for (size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].phase == Phase::kRetired) continue;
    retire(i, /*converged=*/false, /*cancelled=*/false,
           std::move(lanes[i].cur));
  }
}

// ---------------------------------------------------------------------
// The pre-fused sequential push loop, kept verbatim as the equivalence
// reference (PowerKernel::kSequentialPush).
void RunSequentialPush(const graph::AuthorityGraph& graph,
                       const graph::TransferRates& rates, const BaseSet& base,
                       const ObjectRankOptions& options,
                       std::vector<double>& cur, std::vector<double>& next,
                       ObjectRankResult& result) {
  const size_t n = graph.num_nodes();
  const std::vector<double>& alpha = rates.slots();
  const double d = options.damping;
  const double jump = 1.0 - d;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.cancel && options.cancel()) {
      result.cancelled = true;
      break;
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t u = 0; u < n; ++u) {
      const double ru = cur[u];
      if (ru == 0.0) continue;
      const double dru = d * ru;
      for (const graph::AuthorityEdge& e :
           graph.OutEdges(static_cast<graph::NodeId>(u))) {
        next[e.target] +=
            dru * alpha[e.rate_index] * static_cast<double>(e.inv_out_deg);
      }
    }
    for (const auto& [node, w] : base.entries) next[node] += jump * w;

    double l1 = 0.0;
    for (size_t v = 0; v < n; ++v) l1 += std::fabs(next[v] - cur[v]);
    cur.swap(next);
    result.iterations = iter;
    if (l1 < options.epsilon) {
      result.converged = true;
      break;
    }
  }
}

}  // namespace

ObjectRankResult ObjectRankEngine::Compute(
    const BaseSet& base, const graph::TransferRates& rates,
    const ObjectRankOptions& options,
    const std::vector<double>* warm_start) const {
  const size_t n = graph_->num_nodes();
  ORX_CHECK_MSG(!base.empty(), "base set must be non-empty");

  ObjectRankResult result;
  std::vector<double>& cur = result.scores;
  if (warm_start != nullptr && warm_start->size() == n) {
    cur = *warm_start;
  } else {
    cur.assign(n, 0.0);
    for (const auto& [node, w] : base.entries) cur[node] = w;
  }
  std::vector<double> next(n, 0.0);

  switch (options.kernel) {
    case PowerKernel::kFused:
      RunFused(*graph_, *fused_cache_, rates, base, options, cur, next,
               result);
      break;
    case PowerKernel::kSequentialPush:
      RunSequentialPush(*graph_, rates, base, options, cur, next, result);
      break;
  }
  return result;
}

std::vector<ObjectRankResult> ObjectRankEngine::ComputeBatch(
    const std::vector<BatchQuery>& queries, const graph::TransferRates& rates,
    const ObjectRankOptions& options) const {
  std::vector<ObjectRankResult> results(queries.size());
  if (queries.empty()) return results;
  if (options.kernel != PowerKernel::kFused || queries.size() == 1) {
    // The reference kernel has no block form, and a single fused lane
    // has nothing to share (the single-vector kernel also skips the
    // block layout's copies): run the lanes one by one. Per-lane results
    // are bit-identical either way.
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i] =
          Compute(*queries[i].base, rates, options, queries[i].warm_start);
    }
    return results;
  }
  RunFusedBatch(*graph_, *fused_cache_, rates, queries, options, results);
  return results;
}

ObjectRankResult ObjectRankEngine::ComputeGlobal(
    const graph::TransferRates& rates,
    const ObjectRankOptions& options) const {
  return Compute(GlobalBaseSet(graph_->num_nodes()), rates, options);
}

}  // namespace orx::core
