#pragma once
// The one per-pair path store. The paper's evaluation computes one path
// set -- "4 disjoint shortest paths for every source-destination pair"
// (§6.1) -- and the packet simulator, the flow schemes and the fluid
// path sets all read their candidate paths from a PathCache.
//
// Layers: PathFinder (graph/paths.hpp) is the kernel, PathCache the
// store, and an optional PathTable (graph/path_table.hpp, built by
// exp::precompute_paths) the seed. A seeded cache answers the pairs the
// table covers with spans into the table, so nothing is copied; every
// other pair is computed once, on first use, by the cache's own frozen
// CsrGraph and reusable PathFinder, and kept in a node-stable std::map.
// Either way a returned span stays valid for the cache's lifetime, and
// across moves of the cache.

#include <cstddef>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/path_table.hpp"
#include "graph/paths.hpp"

namespace spider::graph {

enum class PathMode {
  kShortest,          // single BFS shortest path
  kEdgeDisjoint,      // up to k edge-disjoint shortest paths
  kKShortest,         // up to k Yen loopless shortest paths
};

class PathCache {
 public:
  PathCache() = default;
  /// Binds the cache to `g`, which must outlive it. A non-null `seed`
  /// must also outlive it and must hold what this cache would compute:
  /// mode kEdgeDisjoint at the same k (what exp::precompute_paths
  /// builds). Anything else throws std::invalid_argument, so a table
  /// built at another k can never mix path-set sizes into a run.
  PathCache(const Graph* g, PathMode mode, std::size_t k,
            const PathTable* seed = nullptr);

  /// Paths for (src, dst): from the seed when it covers the pair, else
  /// computed on first use and cached.
  [[nodiscard]] std::span<const Path> paths(NodeId src, NodeId dst);

  /// Pairs this cache computed itself (seed hits are not counted).
  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

 private:
  const Graph* graph_ = nullptr;
  CsrGraph csr_;        // frozen view of *graph_
  PathFinder finder_;   // reusable per-query scratch
  PathMode mode_ = PathMode::kShortest;
  std::size_t k_ = 1;
  const PathTable* seed_ = nullptr;
  std::map<std::pair<NodeId, NodeId>, std::vector<Path>> cache_;
};

}  // namespace spider::graph
