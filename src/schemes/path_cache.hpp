#pragma once
// Lazily-computed per-pair path tables shared by the routing schemes.
// The paper's evaluation restricts Spider to 4 edge-disjoint shortest
// paths per pair (§6.1); baselines use the single shortest path.
//
// The cache freezes the bound graph into a CsrGraph at construction and
// answers misses through a reusable PathFinder, so a cold sweep over a
// 3774-node Ripple topology no longer pays per-query scratch
// allocation.

#include <map>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"

namespace spider::schemes {

enum class PathMode {
  kShortest,          // single BFS shortest path
  kEdgeDisjoint,      // up to k edge-disjoint shortest paths
  kKShortest,         // up to k Yen loopless shortest paths
};

class PathCache {
 public:
  PathCache() = default;
  PathCache(const graph::Graph* g, PathMode mode, std::size_t k)
      : graph_(g), csr_(*g), mode_(mode), k_(k) {}

  /// Paths for (src, dst), computed on first use and cached.
  const std::vector<graph::Path>& paths(graph::NodeId src, graph::NodeId dst);

  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

 private:
  const graph::Graph* graph_ = nullptr;
  graph::CsrGraph csr_;        // frozen view of *graph_
  graph::PathFinder finder_;   // reusable per-query scratch
  PathMode mode_ = PathMode::kShortest;
  std::size_t k_ = 1;
  std::map<std::pair<graph::NodeId, graph::NodeId>, std::vector<graph::Path>>
      cache_;
};

}  // namespace spider::schemes
