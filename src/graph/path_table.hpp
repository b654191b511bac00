#pragma once
// Dense pair-indexed path table: the output of sharded path
// precomputation (exp/path_precompute.hpp) and the optional seed of a
// graph::PathCache (graph/path_cache.hpp), which serves covered pairs
// as spans into this table and computes the rest itself.
//
// Pure data -- this header lives in graph/ so the simulators can depend
// on it without pulling in the exp::Runner thread pool. Pairs are kept
// sorted by (src, dst); find() is a binary search returning a span over
// the concatenated path store. k() records the edge-disjoint path count
// the table was built with, so a cache can refuse a table built at
// another k.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace spider::graph {

class PathTable {
 public:
  using Pair = std::pair<NodeId, NodeId>;

  PathTable() = default;

  /// Builds the index from parallel pair/offset/path stores. `offsets`
  /// has `pairs.size() + 1` entries; pair i's paths occupy
  /// `paths[offsets[i] .. offsets[i+1])`. `pairs` must be sorted and
  /// unique (the precompute plan guarantees it). `k` is the path count
  /// each pair was asked for.
  PathTable(std::vector<Pair> pairs, std::vector<std::uint32_t> offsets,
            std::vector<Path> paths, std::size_t k)
      : pairs_(std::move(pairs)),
        offsets_(std::move(offsets)),
        paths_(std::move(paths)),
        k_(k) {}

  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return pairs_.empty(); }
  /// Edge-disjoint paths per pair the table was built with (0 when
  /// default-constructed).
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

  /// Precomputed paths of (src, dst); empty span when the pair is not
  /// in the table (PathCache then computes it). An empty span is also
  /// what a *covered but disconnected* pair yields; has_pair()
  /// disambiguates.
  [[nodiscard]] std::span<const Path> find(NodeId src, NodeId dst) const {
    const std::size_t i = index_of(src, dst);
    if (i == pairs_.size()) return {};
    return {paths_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  [[nodiscard]] bool has_pair(NodeId src, NodeId dst) const {
    return index_of(src, dst) != pairs_.size();
  }

  [[nodiscard]] std::span<const Pair> pairs() const noexcept { return pairs_; }
  [[nodiscard]] std::span<const Path> paths() const noexcept { return paths_; }

  /// FNV-1a over every pair, offset, and path arc: the byte-identity
  /// fingerprint the thread-count determinism tests and bench_scale
  /// compare across worker counts.
  [[nodiscard]] std::uint64_t checksum() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t word) {
      h ^= word;
      h *= 0x100000001b3ull;
    };
    for (const auto& [s, d] : pairs_) {
      mix(s);
      mix(d);
    }
    for (const std::uint32_t o : offsets_) mix(o);
    for (const Path& p : paths_) {
      mix(p.source);
      mix(p.arcs.size());
      for (const ArcId a : p.arcs) mix(a);
    }
    return h;
  }

 private:
  [[nodiscard]] std::size_t index_of(NodeId src, NodeId dst) const {
    const Pair key{src, dst};
    const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), key);
    if (it == pairs_.end() || *it != key) return pairs_.size();
    return static_cast<std::size_t>(it - pairs_.begin());
  }

  std::vector<Pair> pairs_;             // sorted by (src, dst)
  std::vector<std::uint32_t> offsets_;  // pairs_.size() + 1 entries
  std::vector<Path> paths_;             // concatenated per-pair paths
  std::size_t k_ = 0;
};

}  // namespace spider::graph
