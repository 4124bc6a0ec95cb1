#include "common/numa.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>

#include "common/thread_pool.h"

namespace orx {
namespace {

// Reads one line from a sysfs file; "" if unreadable.
std::string ReadSysfsLine(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::string line;
  std::getline(in, line);
  return line;
}

NumaTopology DetectTopology() {
  NumaTopology topo;
  // Probe node0, node1, ... until the first gap; sysfs node ids are
  // dense for online nodes.
  for (int node = 0;; ++node) {
    const std::string list = ReadSysfsLine("/sys/devices/system/node/node" +
                                           std::to_string(node) + "/cpulist");
    if (list.empty()) break;
    std::vector<int> cpus = ParseCpuList(list);
    if (cpus.empty()) break;
    topo.node_cpus.push_back(std::move(cpus));
  }
  if (topo.node_cpus.empty()) {
    // UMA fallback: one node holding every hardware thread.
    const int n = static_cast<int>(ThreadPool::HardwareThreads());
    std::vector<int> cpus(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) cpus[static_cast<size_t>(i)] = i;
    topo.node_cpus.push_back(std::move(cpus));
  }
  return topo;
}

}  // namespace

size_t NumaTopology::num_cpus() const {
  size_t total = 0;
  for (const auto& cpus : node_cpus) total += cpus.size();
  return total;
}

int NumaTopology::NodeOfCpu(int cpu) const {
  for (size_t n = 0; n < node_cpus.size(); ++n) {
    if (std::binary_search(node_cpus[n].begin(), node_cpus[n].end(), cpu)) {
      return static_cast<int>(n);
    }
  }
  return 0;
}

std::string NumaTopology::ToString() const {
  std::ostringstream out;
  out << node_cpus.size() << " node(s):";
  for (size_t n = 0; n < node_cpus.size(); ++n) {
    out << " node" << n << "[" << node_cpus[n].size() << " cpus]";
  }
  return out.str();
}

std::vector<int> ParseCpuList(std::string_view list) {
  std::vector<int> cpus;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = list.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t dash = item.find('-');
    int lo = -1, hi = -1;
    if (dash == std::string_view::npos) {
      auto [p, ec] = std::from_chars(item.data(), item.data() + item.size(),
                                     lo);
      if (ec != std::errc() || p != item.data() + item.size()) continue;
      hi = lo;
    } else {
      const std::string_view a = item.substr(0, dash);
      const std::string_view b = item.substr(dash + 1);
      auto [pa, ea] = std::from_chars(a.data(), a.data() + a.size(), lo);
      auto [pb, eb] = std::from_chars(b.data(), b.data() + b.size(), hi);
      if (ea != std::errc() || eb != std::errc() ||
          pa != a.data() + a.size() || pb != b.data() + b.size()) {
        continue;
      }
    }
    if (lo < 0 || hi < lo || hi - lo > 4095) continue;  // sanity bound
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

const NumaTopology& Topology() {
  static const NumaTopology& topo = *new NumaTopology(DetectTopology());
  return topo;
}

int NodeForWorker(size_t worker, size_t num_workers,
                  const NumaTopology& topology) {
  const size_t nodes = std::max<size_t>(1, topology.num_nodes());
  if (num_workers == 0) return 0;
  // Contiguous blocks, remainder spread over the leading nodes: with 10
  // workers on 4 nodes the blocks are 3,3,2,2 — worker order stays
  // node-major so partition t and worker t touch the same socket.
  const size_t base = num_workers / nodes;
  const size_t extra = num_workers % nodes;
  const size_t boundary = extra * (base + 1);
  size_t node;
  if (worker < boundary) {
    node = worker / (base + 1);
  } else if (base == 0) {
    node = worker % nodes;  // more nodes than workers: round-robin
  } else {
    node = extra + (worker - boundary) / base;
  }
  return static_cast<int>(std::min(node, nodes - 1));
}

bool PinCurrentThreadToNode(int node) {
  const NumaTopology& topo = Topology();
  if (topo.num_nodes() <= 1) return false;
  if (node < 0 || static_cast<size_t>(node) >= topo.num_nodes()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : topo.node_cpus[static_cast<size_t>(node)]) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  if (CPU_COUNT(&set) == 0) return false;
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::shared_ptr<void> AllocateFirstTouch(size_t bytes) {
  constexpr size_t kAlign = 64;
  void* raw = ::operator new(bytes, std::align_val_t(kAlign));
  std::shared_ptr<void> owner(raw, [](void* p) {
    ::operator delete(p, std::align_val_t(kAlign));
  });
  const NumaTopology& topo = Topology();
  const size_t nodes = topo.num_nodes();
  if (nodes <= 1 || bytes < (size_t{1} << 20)) {
    std::memset(raw, 0, bytes);
    return owner;
  }
  // One toucher per node, each zeroing its contiguous node-major block —
  // the physical pages land on the node that will stream them. Blocks
  // split at page boundaries so two nodes never share a page.
  const size_t page = 4096;
  const size_t pages = (bytes + page - 1) / page;
  std::vector<std::thread> touchers;
  touchers.reserve(nodes);
  char* base = static_cast<char*>(raw);
  for (size_t n = 0; n < nodes; ++n) {
    const size_t lo = pages * n / nodes * page;
    const size_t hi = std::min(bytes, pages * (n + 1) / nodes * page);
    if (lo >= hi) continue;
    touchers.emplace_back([base, lo, hi, n] {
      ScopedNodeAffinity pin(static_cast<int>(n));
      std::memset(base + lo, 0, hi - lo);
    });
  }
  for (std::thread& t : touchers) t.join();
  return owner;
}

ScopedNodeAffinity::ScopedNodeAffinity(int node) {
  static_assert(sizeof(saved_mask_) >= sizeof(cpu_set_t));
  cpu_set_t saved;
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) != 0) {
    return;
  }
  if (!PinCurrentThreadToNode(node)) return;
  std::memcpy(saved_mask_, &saved, sizeof(saved));
  active_ = true;
}

ScopedNodeAffinity::~ScopedNodeAffinity() {
  if (!active_) return;
  cpu_set_t saved;
  std::memcpy(&saved, saved_mask_, sizeof(saved));
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

}  // namespace orx
