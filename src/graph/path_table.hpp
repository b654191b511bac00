#pragma once
// Dense pair-indexed path table: the output of sharded path
// precomputation (exp/path_precompute.hpp) and the optional seed of a
// graph::PathCache (graph/path_cache.hpp), which serves covered pairs
// as spans into this table and computes the rest itself.
//
// It is also fluid::PathSet: the fluid solvers' rates and Spider's
// weights are arrays indexed by table position (index into paths()).
//
// Pure data -- this header lives in graph/ so the simulators can depend
// on it without pulling in the exp::Runner thread pool. Pairs are kept
// sorted by (src, dst); find() is a binary search returning a span over
// the concatenated path store. k() records the edge-disjoint path count
// the table was built with, so a cache can refuse a table built at
// another k.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace spider::graph {

class PathTable {
 public:
  using Pair = std::pair<NodeId, NodeId>;

  PathTable() = default;

  /// Builds the table from one row of paths per pair: `rows[i]` holds
  /// the paths of `pairs[i]`, and they are concatenated in that order.
  /// `pairs` must be sorted and unique; `k` is the edge-disjoint path
  /// count each pair was asked for, or 0 for any other path kind.
  PathTable(std::vector<Pair> pairs, std::vector<std::vector<Path>> rows,
            std::size_t k)
      : pairs_(std::move(pairs)), k_(k) {
    if (rows.size() != pairs_.size() ||
        std::adjacent_find(pairs_.begin(), pairs_.end(),
                           std::greater_equal<>()) != pairs_.end()) {
      throw std::invalid_argument(
          "PathTable: need one row per pair, pairs sorted and unique");
    }
    std::size_t total = 0;
    for (const std::vector<Path>& row : rows) total += row.size();
    paths_.reserve(total);
    offsets_.reserve(rows.size() + 1);
    offsets_.push_back(0);
    for (std::vector<Path>& row : rows) {
      for (Path& p : row) paths_.push_back(std::move(p));
      offsets_.push_back(static_cast<std::uint32_t>(paths_.size()));
    }
  }

  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return pairs_.empty(); }
  /// Edge-disjoint paths per pair the table was built with (0 when
  /// default-constructed or holding another path kind).
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

  /// Precomputed paths of (src, dst); empty span when the pair is not
  /// in the table (PathCache then computes it). An empty span is also
  /// what a *covered but disconnected* pair yields; has_pair()
  /// disambiguates.
  [[nodiscard]] std::span<const Path> find(NodeId src, NodeId dst) const {
    const std::size_t i = pair_index(src, dst);
    if (i == pairs_.size()) return {};
    return {paths_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  [[nodiscard]] bool has_pair(NodeId src, NodeId dst) const {
    return pair_index(src, dst) != pairs_.size();
  }

  /// Index of (src, dst) in pairs(), or pair_count() when absent.
  [[nodiscard]] std::size_t pair_index(NodeId src, NodeId dst) const {
    const Pair key{src, dst};
    const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), key);
    if (it == pairs_.end() || *it != key) return pairs_.size();
    return static_cast<std::size_t>(it - pairs_.begin());
  }

  /// Pair at index i owns table positions [offsets()[i], offsets()[i+1]).
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
    return offsets_;
  }

  /// The pair whose row holds table position `pos`.
  [[nodiscard]] Pair pair_of(std::size_t pos) const {
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), pos);
    return pairs_[static_cast<std::size_t>(it - offsets_.begin()) - 1];
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
  std::vector<Pair> pairs_;             // sorted by (src, dst)
  std::vector<std::uint32_t> offsets_;  // pairs_.size() + 1 entries
  std::vector<Path> paths_;             // concatenated per-pair paths
  std::size_t k_ = 0;
};

}  // namespace spider::graph
