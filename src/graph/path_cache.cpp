#include "graph/path_cache.hpp"

#include <stdexcept>

namespace spider::graph {

PathCache::PathCache(const Graph* g, PathMode mode, std::size_t k,
                     const PathTable* seed)
    : graph_(g), csr_(*g), mode_(mode), k_(k), seed_(seed) {
  if (seed_ != nullptr &&
      (mode_ != PathMode::kEdgeDisjoint || seed_->k() != k_)) {
    throw std::invalid_argument(
        "PathCache: seed must hold edge-disjoint paths at the cache's k");
  }
}

std::span<const Path> PathCache::paths(NodeId src, NodeId dst) {
  if (graph_ == nullptr) {
    throw std::logic_error("PathCache: not bound to a graph");
  }
  if (seed_ != nullptr && seed_->has_pair(src, dst)) {
    return seed_->find(src, dst);
  }
  const auto key = std::make_pair(src, dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  std::vector<Path> result;
  switch (mode_) {
    case PathMode::kShortest: {
      auto p = finder_.bfs_shortest(csr_, src, dst);
      if (p) result.push_back(std::move(*p));
      break;
    }
    case PathMode::kEdgeDisjoint:
      result = finder_.edge_disjoint(csr_, src, dst, k_);
      break;
    case PathMode::kKShortest:
      result = finder_.yen(csr_, src, dst, k_);
      break;
  }
  return cache_.emplace(key, std::move(result)).first->second;
}

}  // namespace spider::graph
