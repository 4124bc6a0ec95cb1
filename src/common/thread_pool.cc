#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace orx {

ThreadPool::ThreadPool(size_t num_threads)
    : ThreadPool(num_threads, WorkerStartFn()) {}

ThreadPool::ThreadPool(size_t num_threads, WorkerStartFn on_worker_start) {
  if (num_threads == 0) num_threads = HardwareThreads();
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i, on_worker_start] {
      if (on_worker_start) on_worker_start(i);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_ready_.SignalAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.Signal();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!(queue_.empty() && in_flight_ == 0)) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // One sweep task per worker, all pulling from a shared counter: cheap
  // dynamic load balancing without per-index queue traffic.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  const size_t sweeps = std::min(n, num_threads());
  for (size_t t = 0; t < sweeps; ++t) {
    Submit([next, n, &fn] {
      for (size_t i = next->fetch_add(1); i < n; i = next->fetch_add(1)) {
        fn(i);
      }
    });
  }
  Wait();
}

size_t ThreadPool::HardwareThreads() {
  // glibc answers hardware_concurrency() by reading sysfs on every call;
  // the service clamps each request's threads with this count under its
  // mutex, so a cache hit must not pay that read.
  static const size_t count =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return count;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) task_ready_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.SignalAll();
    }
  }
}

}  // namespace orx
