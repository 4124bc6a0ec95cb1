// A gated search: the serving tests' way to hold a SearchService pool
// worker (and its admission slot) deterministically.

#ifndef ORX_TESTS_SERVE_GATE_H_
#define ORX_TESTS_SERVE_GATE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/searcher.h"
#include "serve/snapshot.h"

namespace orx::serve {

/// A cancellation hook that parks the power iteration until Open(); used
/// to hold an execution in flight deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  bool Block() {
    entered.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
    return false;  // never cancel; just stall
  }
  void WaitUntilEntered() {
    while (!entered.load()) std::this_thread::yield();
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

inline core::SearchOptions GatedOptions(const ServeSnapshot& snap,
                                        const std::shared_ptr<Gate>& gate) {
  core::SearchOptions options = snap.default_options;
  options.objectrank.cancel = [gate] { return gate->Block(); };
  return options;
}

}  // namespace orx::serve

#endif  // ORX_TESTS_SERVE_GATE_H_
