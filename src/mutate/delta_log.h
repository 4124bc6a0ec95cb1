#ifndef ORX_MUTATE_DELTA_LOG_H_
#define ORX_MUTATE_DELTA_LOG_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "graph/schema_graph.h"
#include "mutate/mutation.h"

namespace orx::mutate {

/// The bounded in-memory mutation queue between the write API and the
/// background SnapshotBuilder (the orrp-style writer/consumer split).
///
/// Writers Append() validated batches and receive a monotonically
/// increasing sequence number. The acknowledgment means *accepted into
/// this in-memory log*, not yet visible to readers; visibility arrives
/// with the next snapshot publication that covers the sequence. It is
/// not durable: a clean SnapshotBuilder::Stop() drains every accepted
/// batch into a publication, but a crash (kill -9) loses the batches
/// still queued or unpublished — nothing is written to disk until a
/// write-ahead log exists (ROADMAP item 6(a)). When the queue is at
/// capacity Append fails fast with kUnavailable (the same backpressure
/// contract as SearchService admission) instead of blocking the serving
/// thread.
///
/// The consumer side (one SnapshotBuilder) blocks in Drain() until work
/// or Close(). All methods are thread-safe.
class DeltaLog {
 public:
  struct Options {
    /// Maximum queued batches before Append returns kUnavailable.
    size_t capacity = 1024;
  };

  /// One queued batch with its assigned sequence number.
  struct PendingBatch {
    uint64_t sequence = 0;
    MutationBatch batch;
  };

  /// Counters, sampled under the log's mutex (a consistent cut).
  struct Stats {
    /// Batches accepted into the log since construction.
    uint64_t appended = 0;
    /// Appends refused: kUnavailable (full) + kInvalidArgument (static
    /// validation) + appends after Close.
    uint64_t rejected = 0;
    /// Batches handed to the consumer via Drain.
    uint64_t drained = 0;
    /// Individual mutations across accepted batches.
    uint64_t mutations_appended = 0;
    /// The sequence the next accepted batch will get (1-based).
    uint64_t next_sequence = 1;
    /// Batches currently queued.
    size_t queued = 0;
  };

  /// The schema is used for static validation at Append time and must
  /// outlive the log.
  explicit DeltaLog(const graph::SchemaGraph& schema);
  DeltaLog(const graph::SchemaGraph& schema, Options options);

  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Validates `batch` statically against the schema and queues it.
  /// Returns the assigned sequence number; kInvalidArgument on a static
  /// violation, kUnavailable when the log is full, kFailedPrecondition
  /// after Close().
  StatusOr<uint64_t> Append(MutationBatch batch);

  /// Blocks until at least one batch is queued or Close() was called,
  /// then removes and returns up to `max_batches` batches in sequence
  /// order. An empty result means the log is closed and fully drained —
  /// the consumer's termination signal.
  std::vector<PendingBatch> Drain(size_t max_batches);

  /// Rejects further appends and wakes any blocked Drain. Queued batches
  /// remain drainable. Idempotent.
  void Close();

  bool closed() const;
  Stats stats() const;

 private:
  const graph::SchemaGraph* schema_;
  const Options options_;

  mutable Mutex mu_{"delta_log.mu"};
  CondVar cv_;
  std::deque<PendingBatch> queue_ ORX_GUARDED_BY(mu_);
  uint64_t next_sequence_ ORX_GUARDED_BY(mu_) = 1;
  uint64_t appended_ ORX_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ ORX_GUARDED_BY(mu_) = 0;
  uint64_t drained_ ORX_GUARDED_BY(mu_) = 0;
  uint64_t mutations_appended_ ORX_GUARDED_BY(mu_) = 0;
  bool closed_ ORX_GUARDED_BY(mu_) = false;
};

}  // namespace orx::mutate

#endif  // ORX_MUTATE_DELTA_LOG_H_
