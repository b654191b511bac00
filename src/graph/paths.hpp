#pragma once
// Path-finding algorithms used by Spider routing and the baselines:
// BFS / Dijkstra single shortest path, Yen's k-shortest paths,
// edge-disjoint shortest paths (the paper's default path set: "4 disjoint
// shortest paths for every source-destination pair", §6.1), and
// k widest (max-bottleneck) paths for waterfilling-style selection.
//
// Every algorithm is a PathFinder method, generic over the graph view:
// the mutable adjacency-list graph::Graph and the frozen graph::CsrGraph
// produce byte-identical paths (same neighbour order, same
// priority-queue pop sequence -- pinned by the differential tests). The
// finder's per-query scratch (stamped distance/visit arrays, BFS queues,
// heap storage, blocked-edge mask with an undo list) is reused across
// queries instead of being reallocated per call. Per-pair path sets are
// stored by graph::PathCache (graph/path_cache.hpp), which maps a
// PathMode and k onto these methods.
//
// The BFS is bidirectional: one ball grows from each endpoint, a level
// at a time, until they meet; the path is then rebuilt by a greedy walk
// over the shortest-path DAG. It returns exactly the path a
// unidirectional first-discovery BFS returns (same tie-break order; see
// DESIGN.md §10 "Query scratch"), while touching a fraction of the arcs
// on small-diameter (scale-free) graphs.

#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace spider::graph {

/// Per-arc weight function; must be >= 0 for Dijkstra-family algorithms.
using ArcWeightFn = std::function<double(ArcId)>;

/// Reusable path-query scratch. Not bound to a graph: every method
/// takes the graph view per call (so a moved PathFinder, or one shared
/// across graphs of different sizes, stays valid -- buffers grow on
/// demand). Not thread-safe; use one PathFinder per worker thread.
class PathFinder {
 public:
  /// Shortest path by hop count; nullopt if `t` is unreachable from `s`.
  /// `blocked_edges[e] != 0` removes edge `e` (both directions). Ties go
  /// to the path a unidirectional BFS from `s` discovers first.
  template <class G>
  [[nodiscard]] std::optional<Path> bfs_shortest(
      const G& g, NodeId s, NodeId t, std::span<const char> blocked_edges = {});

  /// Shortest path under non-negative per-arc weights.
  template <class G>
  [[nodiscard]] std::optional<Path> dijkstra(
      const G& g, NodeId s, NodeId t, const ArcWeightFn& weight,
      std::span<const char> blocked_edges = {});

  /// Yen's algorithm: up to `k` loopless shortest paths in non-decreasing
  /// weight order. With `weight == nullptr`, hop count is used.
  template <class G>
  [[nodiscard]] std::vector<Path> yen(const G& g, NodeId s, NodeId t,
                                      std::size_t k,
                                      const ArcWeightFn& weight = nullptr);

  /// Up to `k` mutually edge-disjoint paths, chosen greedily
  /// shortest-first (each path's edges are removed before searching for
  /// the next). The paper's path-set construction (§6.1).
  template <class G>
  [[nodiscard]] std::vector<Path> edge_disjoint(const G& g, NodeId s, NodeId t,
                                                std::size_t k);

  /// Single widest (maximum-bottleneck) path under per-arc capacities,
  /// ties broken by fewer hops; nullopt if unreachable.
  template <class G>
  [[nodiscard]] std::optional<Path> widest(
      const G& g, NodeId s, NodeId t, const ArcWeightFn& capacity,
      std::span<const char> blocked_edges = {});

  /// Up to `k` edge-disjoint widest paths (greedy widest-first removal).
  template <class G>
  [[nodiscard]] std::vector<Path> edge_disjoint_widest(
      const G& g, NodeId s, NodeId t, std::size_t k,
      const ArcWeightFn& capacity);

 private:
  /// Sizes node scratch for `g` and opens a fresh stamped query.
  template <class G>
  void begin_query(const G& g);
  /// Ensures `blocked_` covers `g`'s edges and is all-zero.
  template <class G>
  void grow_blocked(const G& g);
  /// Blocks `e`, remembering it on the undo list.
  void block_edge(EdgeId e) {
    blocked_[e] = 1;
    touched_.push_back(e);
  }
  /// Unblocks everything on the undo list (cheaper than an O(E) refill).
  void unblock_all() {
    for (const EdgeId e : touched_) blocked_[e] = 0;
    touched_.clear();
  }

  template <class G>
  Path build_path(const G& g, NodeId s, NodeId t) const;

  // Stamped node scratch: entry v is live in the current query iff
  // mark_[v] == stamp_; begin_query bumps the stamp instead of clearing
  // the arrays (semantically identical to fresh +inf / unseen arrays).
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> mark_;
  std::vector<double> dist_;        // Dijkstra distance / widest width
  std::vector<std::size_t> hops_;   // widest-path hop tiebreak
  std::vector<ArcId> parent_;
  std::vector<NodeId> queue_;       // BFS FIFO (ring-less: head index)
  std::vector<std::pair<double, NodeId>> heap_;  // Dijkstra binary heap

  // Bidirectional-BFS scratch. The ball around `s` is mark_/parent_/
  // queue_ with hop levels in level_s_; the ball around `t` has its own
  // stamp array, levels and queue. dag_ stamps the s-ball nodes that lie
  // on a shortest s-t path; work_ is the worklist that finds them.
  std::vector<std::uint32_t> mark_t_;
  std::vector<std::uint32_t> level_s_;
  std::vector<std::uint32_t> level_t_;
  std::vector<std::uint32_t> dag_;
  std::vector<NodeId> queue_t_;
  std::vector<NodeId> work_;

  struct WidestItem {
    double width;
    std::size_t hops;
    NodeId node;
    bool operator<(const WidestItem& o) const {
      if (width != o.width) return width < o.width;  // max-heap on width
      return hops > o.hops;                          // then min hops
    }
  };
  std::vector<WidestItem> wheap_;

  // Blocked-edge mask, kept all-zero between uses via the undo list.
  std::vector<char> blocked_;
  std::vector<EdgeId> touched_;

  // Yen scratch, hoisted out of the per-call/per-spur loops.
  struct Candidate {
    double cost;
    Path path;
  };
  struct CandLess {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.cost != b.cost) return a.cost < b.cost;
      if (a.path.arcs.size() != b.path.arcs.size())
        return a.path.arcs.size() < b.path.arcs.size();
      return a.path.arcs < b.path.arcs;
    }
  };
  std::set<Candidate, CandLess> cand_;
  std::set<std::vector<ArcId>> known_;
  std::vector<NodeId> prev_nodes_;
};

/// Total weight of a path under `weight`.
[[nodiscard]] double path_weight(const Path& p, const ArcWeightFn& weight);

/// Bottleneck (minimum per-arc value) along `p`; +inf for the empty path.
[[nodiscard]] double path_bottleneck(const Path& p,
                                     const ArcWeightFn& capacity);

/// Edges of a BFS spanning tree rooted at `root`. Requires a connected
/// graph (throws std::invalid_argument otherwise). Used by Proposition 1:
/// routing a circulation along any spanning tree is perfectly balanced.
[[nodiscard]] std::vector<EdgeId> bfs_spanning_tree(const Graph& g,
                                                    NodeId root = 0);

/// Unique path between `s` and `t` inside the spanning tree `tree_edges`.
[[nodiscard]] Path tree_path(const Graph& g,
                             std::span<const EdgeId> tree_edges, NodeId s,
                             NodeId t);

}  // namespace spider::graph
