#include "common/numa.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"

namespace orx {
namespace {

TEST(ParseCpuListTest, SinglesRangesAndMixes) {
  EXPECT_EQ(ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_EQ(ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("0-1,4,6-7"), (std::vector<int>{0, 1, 4, 6, 7}));
  // Trailing newline, as sysfs delivers it.
  EXPECT_EQ(ParseCpuList("2-3"), (std::vector<int>{2, 3}));
  // Duplicates collapse, order normalizes.
  EXPECT_EQ(ParseCpuList("3,1,3,1-2"), (std::vector<int>{1, 2, 3}));
}

TEST(ParseCpuListTest, MalformedItemsAreSkippedNotFatal) {
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("abc").empty());
  EXPECT_TRUE(ParseCpuList("-3").empty());
  EXPECT_TRUE(ParseCpuList("5-2").empty());    // reversed range
  EXPECT_TRUE(ParseCpuList("0-999999").empty());  // absurd width
  EXPECT_EQ(ParseCpuList("x,4,y-z,7"), (std::vector<int>{4, 7}));
}

TEST(TopologyTest, AlwaysAtLeastOneNodeWithCpus) {
  const NumaTopology& topo = Topology();
  ASSERT_GE(topo.num_nodes(), 1u);
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_FALSE(topo.node_cpus[n].empty()) << "node " << n;
  }
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_NE(topo.ToString().find("node0"), std::string::npos);
}

TEST(TopologyTest, NodeOfCpuCoversListedCpusAndDefaultsToZero) {
  const NumaTopology& topo = Topology();
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    for (const int cpu : topo.node_cpus[n]) {
      EXPECT_EQ(topo.NodeOfCpu(cpu), static_cast<int>(n));
    }
  }
  EXPECT_EQ(topo.NodeOfCpu(1 << 20), 0);
}

TEST(NodeForWorkerTest, BlocksAreContiguousNodeMajorAndBalanced) {
  NumaTopology topo;
  topo.node_cpus = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}};
  // 10 workers on 4 nodes: blocks of 3, 3, 2, 2.
  std::vector<int> nodes;
  for (size_t w = 0; w < 10; ++w) {
    nodes.push_back(NodeForWorker(w, 10, topo));
  }
  EXPECT_EQ(nodes, (std::vector<int>{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}));
  // Node assignments never decrease in worker order (node-major).
  for (size_t w = 1; w < nodes.size(); ++w) {
    EXPECT_GE(nodes[w], nodes[w - 1]);
  }
}

TEST(NodeForWorkerTest, EdgeCases) {
  NumaTopology one;
  one.node_cpus = {{0}};
  EXPECT_EQ(NodeForWorker(0, 4, one), 0);
  EXPECT_EQ(NodeForWorker(3, 4, one), 0);

  NumaTopology four;
  four.node_cpus = {{0}, {1}, {2}, {3}};
  // More nodes than workers: round-robin over the nodes.
  EXPECT_EQ(NodeForWorker(0, 2, four), 0);
  EXPECT_EQ(NodeForWorker(1, 2, four), 1);
  // Exactly one worker per node.
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(NodeForWorker(w, 4, four), static_cast<int>(w));
  }
  EXPECT_EQ(NodeForWorker(0, 0, four), 0);
}

TEST(PinTest, OutOfRangeNodesAreRejected) {
  EXPECT_FALSE(PinCurrentThreadToNode(-1));
  EXPECT_FALSE(PinCurrentThreadToNode(1 << 20));
}

TEST(PinTest, ScopedAffinityIsBestEffortAndRestores) {
  // On a single-node machine pinning is deliberately a no-op; on a
  // multi-node one it must activate and restore without crashing.
  ScopedNodeAffinity pin(0);
  if (Topology().num_nodes() <= 1) {
    EXPECT_FALSE(pin.active());
  } else {
    EXPECT_TRUE(pin.active());
  }
}

TEST(AllocateFirstTouchTest, ReturnsAlignedZeroedStorage) {
  for (const size_t bytes : {size_t{64}, size_t{4096}, size_t{1} << 21}) {
    std::shared_ptr<void> buf = AllocateFirstTouch(bytes);
    ASSERT_NE(buf, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.get()) % 64, 0u);
    const unsigned char* p = static_cast<const unsigned char*>(buf.get());
    for (size_t i = 0; i < bytes; i += 509) {  // prime stride sample
      ASSERT_EQ(p[i], 0u) << "byte " << i;
    }
    // Writable.
    std::memset(buf.get(), 0xAB, bytes);
  }
}

TEST(ThreadPoolStartHookTest, HookRunsOncePerWorkerBeforeTasks) {
  std::atomic<int> hooks{0};
  std::vector<std::atomic<bool>> seen(4);
  for (auto& s : seen) s.store(false);
  std::atomic<int> tasks{0};
  {
    ThreadPool pool(4, [&](size_t worker) {
      ASSERT_LT(worker, 4u);
      EXPECT_FALSE(seen[worker].exchange(true)) << "hook ran twice";
      hooks.fetch_add(1);
    });
    // Tasks observe their worker's hook as already run: the hook is
    // sequenced before WorkerLoop on the same thread.
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] {
        EXPECT_GE(hooks.load(), 1);
        tasks.fetch_add(1);
      });
    }
    pool.Wait();
    EXPECT_EQ(tasks.load(), 64);
  }
  // Counted once the pool has joined its workers: Wait() only drains the
  // queue, and under load a worker the scheduler starts late may not have
  // run its hook by then while the other three took all 64 tasks.
  EXPECT_EQ(hooks.load(), 4);
}

}  // namespace
}  // namespace orx
