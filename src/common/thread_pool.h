#ifndef ORX_COMMON_THREAD_POOL_H_
#define ORX_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace orx {

/// A fixed-size worker pool for CPU-bound fan-out: submit independent
/// tasks, then Wait() for all of them. Built for the offline index-build
/// paths (per-keyword RankCache precomputation, batched serving later) —
/// throughput over latency, no task priorities, no futures.
///
/// Tasks must not throw (the library is exception-free; a throwing task
/// aborts). Tasks may submit further tasks. Determinism is the caller's
/// job: give each task its own output slot and merge in a fixed order
/// after Wait() returns.
class ThreadPool {
 public:
  /// Runs once on each worker thread right after it starts, with the
  /// worker's index in [0, num_threads). Used for thread-affinity setup
  /// (NUMA node pinning, see common/numa.h) before any task runs.
  using WorkerStartFn = std::function<void(size_t worker_index)>;

  /// Spawns `num_threads` workers; 0 means HardwareThreads().
  explicit ThreadPool(size_t num_threads);

  /// Same, with a per-worker startup hook. The constructor does not wait
  /// for the hooks; they are ordered before any task that worker runs.
  ThreadPool(size_t num_threads, WorkerStartFn on_worker_start);

  /// Drains outstanding tasks (Wait), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task) ORX_LOCKS_EXCLUDED(mu_);

  /// Blocks until every submitted task has finished, including tasks
  /// submitted while waiting. Safe to call repeatedly; the pool is
  /// reusable afterwards.
  void Wait() ORX_LOCKS_EXCLUDED(mu_);

  /// Runs fn(i) for every i in [0, n) across the pool and waits. The
  /// assignment of indices to workers is unspecified; each index runs
  /// exactly once.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to return 0 when undetectable), read once per process: a
  /// CPU brought online later is not seen, as pools sized earlier
  /// already ignore it. Every other caller goes through here
  /// (tools/orx_lint.py's hardware-concurrency rule).
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  Mutex mu_{"thread_pool.mu"};
  CondVar task_ready_;   // queue non-empty or stopping
  CondVar all_done_;     // queue empty and nothing running
  std::deque<std::function<void()>> queue_ ORX_GUARDED_BY(mu_);
  size_t in_flight_ ORX_GUARDED_BY(mu_) = 0;  // popped but not finished
  bool stop_ ORX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace orx

#endif  // ORX_COMMON_THREAD_POOL_H_
