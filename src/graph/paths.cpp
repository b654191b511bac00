// spider-lint: hot-path-file
// Path queries dominate topology setup at 100k-node scale; containers
// here must come from PathFinder's reusable scratch, not per-call
// construction (enforced by the hot-loop-alloc lint rule).

#include "graph/paths.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace spider::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool edge_blocked(std::span<const char> blocked, EdgeId e) {
  return !blocked.empty() && e < blocked.size() && blocked[e] != 0;
}

}  // namespace

template <class G>
void PathFinder::begin_query(const G& g) {
  const std::size_t n = g.node_count();
  if (mark_.size() < n) {
    mark_.resize(n, 0);
    dist_.resize(n);
    hops_.resize(n);
    parent_.resize(n);
    mark_t_.resize(n, 0);
    level_s_.resize(n);
    level_t_.resize(n);
    dag_.resize(n, 0);
  }
  if (++stamp_ == 0) {  // stamp wrap: old marks could alias a new query
    std::fill(mark_.begin(), mark_.end(), 0);
    std::fill(mark_t_.begin(), mark_t_.end(), 0);
    std::fill(dag_.begin(), dag_.end(), 0);
    stamp_ = 1;
  }
  queue_.clear();
  queue_t_.clear();
  work_.clear();
  heap_.clear();
  wheap_.clear();
}

template <class G>
void PathFinder::grow_blocked(const G& g) {
  // At rest the mask is all-zero (unblock_all undoes every write), so
  // growing only needs to zero-fill the new tail.
  if (blocked_.size() < g.edge_count()) blocked_.resize(g.edge_count(), 0);
}

template <class G>
Path PathFinder::build_path(const G& g, NodeId s, NodeId t) const {
  Path p;
  p.source = s;
  NodeId at = t;
  while (at != s) {
    const ArcId a = parent_[at];
    p.arcs.push_back(a);
    at = g.tail(a);
  }
  std::reverse(p.arcs.begin(), p.arcs.end());
  return p;
}

template <class G>
std::optional<Path> PathFinder::bfs_shortest(
    const G& g, NodeId s, NodeId t, std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  begin_query(g);
  // Search: grow a ball from each end one full level at a time, always
  // expanding the side whose outer level has the smaller degree sum
  // (ties forward). Each ball is its queue; [*_outer, size) is its
  // unexpanded outer level, at hop distance *_level from its root.
  queue_.push_back(s);
  mark_[s] = stamp_;
  level_s_[s] = 0;
  queue_t_.push_back(t);
  mark_t_[t] = stamp_;
  level_t_[t] = 0;
  std::size_t s_outer = 0, t_outer = 0;
  std::uint32_t s_level = 0, t_level = 0;
  std::size_t s_degree = g.degree(s), t_degree = g.degree(t);
  bool met = false;
  while (!met) {
    if (s_degree <= t_degree) {
      const std::size_t end = queue_.size();
      s_degree = 0;
      for (; s_outer < end; ++s_outer) {
        for (const ArcId a : g.out_arcs(queue_[s_outer])) {
          if (edge_blocked(blocked_edges, edge_of(a))) continue;
          const NodeId w = g.head(a);
          if (mark_[w] == stamp_) continue;
          mark_[w] = stamp_;
          parent_[w] = a;
          // Reaching t before the balls meet means the t ball is still
          // {t} (t's neighbours would be in both balls otherwise): this
          // is the unidirectional BFS verbatim, and its first discovery
          // of t is the answer.
          if (w == t) return build_path(g, s, t);
          level_s_[w] = s_level + 1;
          met |= mark_t_[w] == stamp_;
          s_degree += g.degree(w);
          queue_.push_back(w);
        }
      }
      ++s_level;
      if (queue_.size() == end) return std::nullopt;
    } else {
      const std::size_t end = queue_t_.size();
      t_degree = 0;
      for (; t_outer < end; ++t_outer) {
        for (const ArcId a : g.out_arcs(queue_t_[t_outer])) {
          if (edge_blocked(blocked_edges, edge_of(a))) continue;
          const NodeId w = g.head(a);
          if (mark_t_[w] == stamp_) continue;
          mark_t_[w] = stamp_;
          level_t_[w] = t_level + 1;
          met |= mark_[w] == stamp_;
          t_degree += g.degree(w);
          queue_t_.push_back(w);
        }
      }
      ++t_level;
      if (queue_t_.size() == end) return std::nullopt;
    }
  }
  // The balls were disjoint before this level, so every node in both
  // sits on the s ball's outer level at distance t_level from t, and
  // d(s, t) = s_level + t_level. Those meeting nodes are the outer
  // layer of the shortest-path DAG; sweep back through decreasing
  // s-level to stamp the DAG nodes inside the s ball.
  const std::uint32_t d = s_level + t_level;
  for (std::size_t i = s_outer; i < queue_.size(); ++i) {
    const NodeId v = queue_[i];
    if (mark_t_[v] == stamp_ && level_t_[v] == t_level) {
      dag_[v] = stamp_;
      work_.push_back(v);
    }
  }
  for (std::size_t i = 0; i < work_.size(); ++i) {
    const NodeId v = work_[i];
    const std::uint32_t level = level_s_[v];
    if (level == 0) continue;
    for (const ArcId a : g.out_arcs(v)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const NodeId u = g.head(a);
      if (mark_[u] != stamp_ || level_s_[u] + 1 != level ||
          dag_[u] == stamp_) {
        continue;
      }
      dag_[u] = stamp_;
      work_.push_back(u);
    }
  }
  // Reconstruction: from s, follow the first unblocked arc into the next
  // DAG level. Past the s ball, a neighbour of the walk's current node
  // is on the DAG at level L iff its distance to t is d - L. This is the
  // first-discovery BFS path (the argument is in DESIGN.md §10).
  Path p;
  p.source = s;
  p.arcs.reserve(d);
  NodeId at = s;
  for (std::uint32_t level = 1; level <= d; ++level) {
    for (const ArcId a : g.out_arcs(at)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const NodeId w = g.head(a);
      const bool on_dag =
          level <= s_level
              ? dag_[w] == stamp_ && level_s_[w] == level
              : mark_t_[w] == stamp_ && level_t_[w] == d - level;
      if (on_dag) {
        p.arcs.push_back(a);
        at = w;
        break;
      }
    }
  }
  return p;
}

template <class G>
std::optional<Path> PathFinder::dijkstra(const G& g, NodeId s, NodeId t,
                                         const ArcWeightFn& weight,
                                         std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  begin_query(g);
  // heap_ + push_heap/pop_heap with std::greater<> pops in exactly the
  // order std::priority_queue<.., std::greater<>> would (it is specified
  // in terms of these calls), so results match the legacy implementation.
  dist_[s] = 0;
  mark_[s] = stamp_;
  heap_.emplace_back(0.0, s);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    if (u == t) break;
    for (const ArcId a : g.out_arcs(u)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const double w = weight(a);
      if (w < 0) throw std::invalid_argument("dijkstra: negative arc weight");
      const NodeId v = g.head(a);
      const double dv = mark_[v] == stamp_ ? dist_[v] : kInf;
      if (dist_[u] + w < dv) {
        dist_[v] = dist_[u] + w;
        mark_[v] = stamp_;
        parent_[v] = a;
        heap_.emplace_back(dist_[v], v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
  if (mark_[t] != stamp_) return std::nullopt;
  return build_path(g, s, t);
}

template <class G>
std::vector<Path> PathFinder::yen(const G& g, NodeId s, NodeId t,
                                  std::size_t k, const ArcWeightFn& weight) {
  std::vector<Path> result;
  if (k == 0) return result;
  const ArcWeightFn w =
      weight ? weight : ArcWeightFn([](ArcId) { return 1.0; });

  auto first = dijkstra(g, s, t, w);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidate set ordered by (weight, node-sequence) for determinism;
  // the set and the known-paths filter live in PathFinder scratch, and
  // the blocked mask is maintained via the undo list instead of an O(E)
  // refill per spur -- the Yen quadratic-reallocation fix (ISSUE 7).
  cand_.clear();
  known_.clear();
  known_.insert(result[0].arcs);
  grow_blocked(g);

  while (result.size() < k) {
    const Path& prev = result.back();
    prev_nodes_.clear();
    prev_nodes_.push_back(prev.source);
    for (const ArcId a : prev.arcs) prev_nodes_.push_back(g.head(a));
    // Spur from each node of the previous path.
    for (std::size_t i = 0; i < prev.arcs.size(); ++i) {
      const NodeId spur_node = prev_nodes_[i];
      // Root = prev[0..i).
      const auto root_begin = prev.arcs.begin();
      const auto root_end = root_begin + static_cast<std::ptrdiff_t>(i);
      // Block the next edge of every known path sharing this root.
      for (const Path& kp : result) {
        if (kp.arcs.size() > i &&
            std::equal(root_begin, root_end, kp.arcs.begin())) {
          block_edge(edge_of(kp.arcs[i]));
        }
      }
      // Block edges of the root so spur paths stay loopless trails.
      for (auto it = root_begin; it != root_end; ++it) {
        block_edge(edge_of(*it));
      }
      // Also exclude root nodes (other than spur_node) by blocking all
      // their incident edges; keeps node-loopless property.
      for (std::size_t j = 0; j < i; ++j) {
        for (const ArcId a : g.out_arcs(prev_nodes_[j])) {
          block_edge(edge_of(a));
        }
      }
      auto spur = dijkstra(g, spur_node, t, w, blocked_);
      unblock_all();
      if (!spur) continue;
      Path total;
      total.source = s;
      total.arcs.reserve(i + spur->arcs.size());
      total.arcs.assign(root_begin, root_end);
      total.arcs.insert(total.arcs.end(), spur->arcs.begin(),
                        spur->arcs.end());
      if (known_.contains(total.arcs)) continue;
      const double cost = path_weight(total, w);
      cand_.insert(Candidate{cost, std::move(total)});
    }
    if (cand_.empty()) break;
    auto best = cand_.begin();
    known_.insert(best->path.arcs);
    result.push_back(best->path);
    cand_.erase(best);
  }
  return result;
}

template <class G>
std::vector<Path> PathFinder::edge_disjoint(const G& g, NodeId s, NodeId t,
                                            std::size_t k) {
  std::vector<Path> result;
  grow_blocked(g);
  while (result.size() < k) {
    auto p = bfs_shortest(g, s, t, blocked_);
    if (!p) break;
    for (const ArcId a : p->arcs) block_edge(edge_of(a));
    result.push_back(std::move(*p));
  }
  unblock_all();
  return result;
}

template <class G>
std::optional<Path> PathFinder::widest(const G& g, NodeId s, NodeId t,
                                       const ArcWeightFn& capacity,
                                       std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  // Dijkstra variant maximizing min-capacity; ties broken by hop count.
  // Unmarked nodes read as width -1 (i.e. "unreached", as the legacy
  // dense arrays initialised them).
  begin_query(g);
  dist_[s] = kInf;
  hops_[s] = 0;
  mark_[s] = stamp_;
  wheap_.push_back({kInf, 0, s});
  while (!wheap_.empty()) {
    std::pop_heap(wheap_.begin(), wheap_.end());
    const WidestItem it = wheap_.back();
    wheap_.pop_back();
    if (it.width < dist_[it.node] ||
        (it.width == dist_[it.node] && it.hops > hops_[it.node])) {
      continue;
    }
    for (const ArcId a : g.out_arcs(it.node)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const double cap = capacity(a);
      if (cap <= 0) continue;
      const NodeId v = g.head(a);
      const double new_width = std::min(it.width, cap);
      const std::size_t new_hops = it.hops + 1;
      const bool unseen = mark_[v] != stamp_;
      const double wv = unseen ? -1.0 : dist_[v];
      const std::size_t hv =
          unseen ? std::numeric_limits<std::size_t>::max() : hops_[v];
      if (new_width > wv || (new_width == wv && new_hops < hv)) {
        dist_[v] = new_width;
        hops_[v] = new_hops;
        mark_[v] = stamp_;
        parent_[v] = a;
        wheap_.push_back({new_width, new_hops, v});
        std::push_heap(wheap_.begin(), wheap_.end());
      }
    }
  }
  if (mark_[t] != stamp_) return std::nullopt;
  return build_path(g, s, t);
}

template <class G>
std::vector<Path> PathFinder::edge_disjoint_widest(
    const G& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& capacity) {
  std::vector<Path> result;
  grow_blocked(g);
  while (result.size() < k) {
    auto p = widest(g, s, t, capacity, blocked_);
    if (!p) break;
    for (const ArcId a : p->arcs) block_edge(edge_of(a));
    result.push_back(std::move(*p));
  }
  unblock_all();
  return result;
}

// The two graph views the library instantiates the finder for.
template std::optional<Path> PathFinder::bfs_shortest<Graph>(
    const Graph&, NodeId, NodeId, std::span<const char>);
template std::optional<Path> PathFinder::bfs_shortest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, std::span<const char>);
template std::optional<Path> PathFinder::dijkstra<Graph>(
    const Graph&, NodeId, NodeId, const ArcWeightFn&, std::span<const char>);
template std::optional<Path> PathFinder::dijkstra<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, const ArcWeightFn&,
    std::span<const char>);
template std::vector<Path> PathFinder::yen<Graph>(const Graph&, NodeId,
                                                  NodeId, std::size_t,
                                                  const ArcWeightFn&);
template std::vector<Path> PathFinder::yen<CsrGraph>(const CsrGraph&, NodeId,
                                                     NodeId, std::size_t,
                                                     const ArcWeightFn&);
template std::vector<Path> PathFinder::edge_disjoint<Graph>(const Graph&,
                                                            NodeId, NodeId,
                                                            std::size_t);
template std::vector<Path> PathFinder::edge_disjoint<CsrGraph>(const CsrGraph&,
                                                               NodeId, NodeId,
                                                               std::size_t);
template std::optional<Path> PathFinder::widest<Graph>(
    const Graph&, NodeId, NodeId, const ArcWeightFn&, std::span<const char>);
template std::optional<Path> PathFinder::widest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, const ArcWeightFn&,
    std::span<const char>);
template std::vector<Path> PathFinder::edge_disjoint_widest<Graph>(
    const Graph&, NodeId, NodeId, std::size_t, const ArcWeightFn&);
template std::vector<Path> PathFinder::edge_disjoint_widest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, std::size_t, const ArcWeightFn&);

double path_weight(const Path& p, const ArcWeightFn& weight) {
  double total = 0;
  for (const ArcId a : p.arcs) total += weight(a);
  return total;
}

double path_bottleneck(const Path& p, const ArcWeightFn& capacity) {
  double b = kInf;
  for (const ArcId a : p.arcs) b = std::min(b, capacity(a));
  return b;
}

std::vector<EdgeId> bfs_spanning_tree(const Graph& g, NodeId root) {
  if (g.node_count() == 0) return {};
  if (!is_connected(g)) {
    throw std::invalid_argument("bfs_spanning_tree: graph is not connected");
  }
  std::vector<EdgeId> tree;
  tree.reserve(g.node_count() - 1);
  // Cold path (Proposition 1 setup, not per-query routing).
  // spider-lint: allow(hot-loop-alloc)
  std::vector<char> seen(g.node_count(), 0);
  std::deque<NodeId> frontier{root};
  seen[root] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const ArcId a : g.out_arcs(u)) {
      const NodeId w = g.head(a);
      if (seen[w]) continue;
      seen[w] = 1;
      tree.push_back(edge_of(a));
      frontier.push_back(w);
    }
  }
  return tree;
}

Path tree_path(const Graph& g, std::span<const EdgeId> tree_edges, NodeId s,
               NodeId t) {
  // BFS restricted to tree edges; the tree guarantees a unique path.
  // Everything starts blocked; tree edges are unblocked in one pass.
  // Cold path (circulation decomposition, not per-query routing).
  // spider-lint: allow(hot-loop-alloc)
  std::vector<char> blocked(g.edge_count(), 1);
  for (const EdgeId e : tree_edges) blocked[e] = 0;
  PathFinder finder;
  auto p = finder.bfs_shortest(g, s, t, blocked);
  if (!p) {
    throw std::invalid_argument("tree_path: nodes not connected by tree");
  }
  return *p;
}

}  // namespace spider::graph
