#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <string>

#include "graph/topology.hpp"

namespace spider::graph {
namespace {

ArcWeightFn unit_weight() {
  return [](ArcId) { return 1.0; };
}

TEST(BfsShortestPath, LineGraph) {
  const Graph g = topology::make_line(5);
  const auto p = bfs_shortest_path(g, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 4u);
  EXPECT_TRUE(p->valid(g));
  EXPECT_EQ(p->destination(g), 4u);
}

TEST(BfsShortestPath, SameSourceAndTarget) {
  const Graph g = topology::make_line(3);
  const auto p = bfs_shortest_path(g, 1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(BfsShortestPath, Unreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(bfs_shortest_path(g, 0, 3).has_value());
}

TEST(BfsShortestPath, BlockedEdges) {
  const Graph g = topology::make_ring(4);  // 0-1-2-3-0
  std::vector<char> blocked(g.edge_count(), 0);
  blocked[0] = 1;  // block 0-1
  const auto p = bfs_shortest_path(g, 0, 1, blocked);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 3u);  // forced the long way round
}

TEST(Dijkstra, PrefersLightPath) {
  // Triangle where the direct edge is heavy.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto w = [direct](ArcId a) {
    return edge_of(a) == direct ? 10.0 : 1.0;
  };
  const auto p = dijkstra_shortest_path(g, 0, 2, w);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);
  EXPECT_DOUBLE_EQ(path_weight(*p, w), 2.0);
}

TEST(Dijkstra, NegativeWeightThrows) {
  const Graph g = topology::make_line(3);
  EXPECT_THROW(
      (void)dijkstra_shortest_path(g, 0, 2, [](ArcId) { return -1.0; }),
      std::invalid_argument);
}

TEST(Yen, FindsDistinctPathsInOrder) {
  const Graph g = topology::make_fig4_example();
  // From node 0 to node 3: 0-1-3 (2 hops), 0-1-2-3 (3 hops).
  const auto paths = yen_k_shortest_paths(g, 0, 3, 4);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].length(), 2u);
  EXPECT_EQ(paths[1].length(), 3u);
  std::set<std::vector<ArcId>> distinct;
  for (const Path& p : paths) {
    EXPECT_TRUE(p.valid(g)) << to_string(p, g);
    EXPECT_EQ(p.source, 0u);
    EXPECT_EQ(p.destination(g), 3u);
    EXPECT_TRUE(distinct.insert(p.arcs).second) << "duplicate path";
  }
  // Non-decreasing lengths under unit weights.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

TEST(Yen, KZeroAndUnreachable) {
  const Graph g = topology::make_line(3);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 2, 0).empty());
  Graph h(3);
  h.add_edge(0, 1);
  EXPECT_TRUE(yen_k_shortest_paths(h, 0, 2, 3).empty());
}

TEST(EdgeDisjoint, PathsShareNoEdges) {
  const Graph g = topology::make_complete(5);
  const auto paths = edge_disjoint_shortest_paths(g, 0, 4, 4);
  EXPECT_EQ(paths.size(), 4u);  // K5 has 4 edge-disjoint 0->4 paths
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    EXPECT_TRUE(p.valid(g));
    for (const ArcId a : p.arcs) {
      EXPECT_TRUE(used.insert(edge_of(a)).second)
          << "edge reused across paths";
    }
  }
  // First path is a shortest path.
  EXPECT_EQ(paths[0].length(), 1u);
}

TEST(EdgeDisjoint, LimitedByCuts) {
  const Graph g = topology::make_line(4);  // single path only
  const auto paths = edge_disjoint_shortest_paths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(WidestPath, PicksHighCapacityRoute) {
  // 0-2 direct has capacity 1; 0-1-2 has capacity 5.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto cap = [direct](ArcId a) {
    return edge_of(a) == direct ? 1.0 : 5.0;
  };
  const auto p = widest_path(g, 0, 2, cap);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);
  EXPECT_DOUBLE_EQ(path_bottleneck(*p, cap), 5.0);
}

TEST(WidestPath, TieBrokenByHops) {
  const Graph g = topology::make_ring(6);
  const auto p = widest_path(g, 0, 2, unit_weight());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);  // both directions width 1; fewer hops wins
}

TEST(WidestPath, ZeroCapacityArcsUnusable) {
  const Graph g = topology::make_line(3);
  auto cap = [](ArcId a) { return edge_of(a) == 1 ? 0.0 : 3.0; };
  EXPECT_FALSE(widest_path(g, 0, 2, cap).has_value());
}

TEST(EdgeDisjointWidest, DisjointAndOrdered) {
  const Graph g = topology::make_complete(4);
  const auto paths = edge_disjoint_widest_paths(g, 0, 3, 3, unit_weight());
  EXPECT_EQ(paths.size(), 3u);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (const ArcId a : p.arcs) EXPECT_TRUE(used.insert(edge_of(a)).second);
  }
}

TEST(SpanningTree, CoversAllNodes) {
  const Graph g = topology::make_isp32();
  const auto tree = bfs_spanning_tree(g);
  EXPECT_EQ(tree.size(), g.node_count() - 1);
  // A tree path exists between arbitrary nodes and stays inside the tree.
  const Path p = tree_path(g, tree, 3, 27);
  EXPECT_TRUE(p.valid(g));
  std::set<EdgeId> tset(tree.begin(), tree.end());
  for (const ArcId a : p.arcs) EXPECT_TRUE(tset.contains(edge_of(a)));
}

TEST(SpanningTree, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)bfs_spanning_tree(g), std::invalid_argument);
}

// Property sweep: on random connected graphs, Yen agrees with BFS on the
// first path length, disjoint paths are disjoint, and every returned
// path is a valid trail to the right destination.
class PathPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathPropertyTest, RandomGraphInvariants) {
  const std::uint64_t seed = GetParam();
  const Graph g = topology::make_erdos_renyi(14, 0.3, seed);
  std::mt19937_64 rng(seed ^ 0xabcdef);
  std::uniform_int_distribution<NodeId> node(0, 13);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId s = node(rng);
    NodeId t = node(rng);
    if (s == t) continue;
    const auto bfs = bfs_shortest_path(g, s, t);
    ASSERT_TRUE(bfs.has_value());
    const auto yen = yen_k_shortest_paths(g, s, t, 5);
    ASSERT_FALSE(yen.empty());
    EXPECT_EQ(yen[0].length(), bfs->length());
    for (std::size_t i = 1; i < yen.size(); ++i) {
      EXPECT_LE(yen[i - 1].length(), yen[i].length());
      EXPECT_NE(yen[i - 1].arcs, yen[i].arcs);
    }
    const auto disjoint = edge_disjoint_shortest_paths(g, s, t, 4);
    std::set<EdgeId> used;
    for (const Path& p : disjoint) {
      EXPECT_TRUE(p.valid(g));
      EXPECT_EQ(p.source, s);
      EXPECT_EQ(p.destination(g), t);
      for (const ArcId a : p.arcs) {
        EXPECT_TRUE(used.insert(edge_of(a)).second);
      }
    }
    EXPECT_EQ(disjoint[0].length(), bfs->length());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

// ---- Independent oracle for the BFS kernel ---------------------------
//
// `reference_bfs` is the unidirectional first-discovery BFS the library
// kernel must reproduce arc for arc: expand the FIFO queue in order,
// scan each node's out-arcs in adjacency order, record the first arc
// that discovers a node, and stop when `t` is discovered. It shares no
// code with PathFinder, so a changed tie-break in the kernel shows up
// here even though the Graph-vs-CSR differential tests cannot see it
// (both of their sides run the same kernel).

bool oracle_blocked(std::span<const char> blocked, EdgeId e) {
  return e < blocked.size() && blocked[e] != 0;
}

template <class G>
std::optional<Path> reference_bfs(const G& g, NodeId s, NodeId t,
                                  std::span<const char> blocked = {}) {
  const std::size_t n = g.node_count();
  if (s >= n || t >= n) return std::nullopt;
  if (s == t) return Path{s, {}};
  std::vector<char> seen(n, 0);
  std::vector<ArcId> parent(n, kInvalidArc);
  std::vector<NodeId> queue{s};
  seen[s] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const ArcId a : g.out_arcs(queue[head])) {
      if (oracle_blocked(blocked, edge_of(a))) continue;
      const NodeId w = g.head(a);
      if (seen[w]) continue;
      seen[w] = 1;
      parent[w] = a;
      if (w == t) {
        Path p{s, {}};
        for (NodeId at = t; at != s; at = g.tail(parent[at])) {
          p.arcs.push_back(parent[at]);
        }
        std::reverse(p.arcs.begin(), p.arcs.end());
        return p;
      }
      queue.push_back(w);
    }
  }
  return std::nullopt;
}

/// Greedy shortest-first edge-disjoint paths over `reference_bfs`.
template <class G>
std::vector<Path> reference_edge_disjoint(const G& g, NodeId s, NodeId t,
                                          std::size_t k) {
  std::vector<Path> result;
  std::vector<char> blocked(g.edge_count(), 0);
  while (result.size() < k) {
    auto p = reference_bfs(g, s, t, blocked);
    if (!p) break;
    for (const ArcId a : p->arcs) blocked[edge_of(a)] = 1;
    result.push_back(std::move(*p));
  }
  return result;
}

/// Two parallel channels per pair on a random connected graph: ties
/// between parallel arcs are decided purely by adjacency order.
Graph make_parallel_multigraph(std::size_t n, std::uint64_t seed) {
  Graph g(n);
  std::mt19937_64 rng(seed);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId u =
        std::uniform_int_distribution<NodeId>(0, v - 1)(rng);
    g.add_edge(u, v);
    if (rng() % 2 == 0) g.add_edge(v, u);  // parallel, reversed endpoints
  }
  for (std::size_t extra = 0; extra < n; ++extra) {
    const NodeId u = std::uniform_int_distribution<NodeId>(
        0, static_cast<NodeId>(n - 1))(rng);
    const NodeId v = std::uniform_int_distribution<NodeId>(
        0, static_cast<NodeId>(n - 1))(rng);
    if (u == v) continue;
    g.add_edge(u, v);
    g.add_edge(u, v);
  }
  return g;
}

struct OracleTopology {
  std::string name;
  std::function<Graph()> make;
};

std::vector<OracleTopology> oracle_topologies() {
  return {
      {"ring-100", [] { return topology::make_ring(100); }},
      {"line-50", [] { return topology::make_line(50); }},
      {"star-30", [] { return topology::make_star(30); }},
      {"complete-20", [] { return topology::make_complete(20); }},
      {"isp32", [] { return topology::make_isp32(); }},
      {"fig4", [] { return topology::make_fig4_example(); }},
      {"smallworld-200",
       [] { return topology::make_small_world(200, 2, 0.1, 7); }},
      {"scalefree-64", [] { return topology::make_scale_free(64, 2, 5); }},
      {"ripple-300", [] { return topology::make_ripple_like(300, 13); }},
      {"multigraph-40", [] { return make_parallel_multigraph(40, 3); }},
  };
}

/// Query endpoints: seeded random pairs plus every (hub, leaf) and
/// (leaf, hub) combination of the highest- and lowest-degree nodes, so
/// the search starts from both the dense and the sparse end.
std::vector<std::pair<NodeId, NodeId>> oracle_pairs(const Graph& g,
                                                    std::size_t random_pairs,
                                                    std::uint64_t seed) {
  const auto n = static_cast<NodeId>(g.node_count());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> node(0, n - 1);
  for (std::size_t i = 0; i < random_pairs; ++i) {
    pairs.emplace_back(node(rng), node(rng));
  }
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](NodeId a, NodeId b) {
                     return g.degree(a) > g.degree(b);
                   });
  const std::size_t ends = std::min<std::size_t>(3, n);
  for (std::size_t i = 0; i < ends; ++i) {
    for (std::size_t j = 0; j < ends; ++j) {
      const NodeId hub = by_degree[i];
      const NodeId leaf = by_degree[n - 1 - j];
      pairs.emplace_back(hub, leaf);
      pairs.emplace_back(leaf, hub);
    }
  }
  return pairs;
}

TEST(BfsOracle, MatchesReferenceOnEveryTopologyAndMask) {
  PathFinder finder;  // one finder across every graph size below
  std::size_t reachable = 0, unreachable = 0;
  for (const OracleTopology& topo : oracle_topologies()) {
    SCOPED_TRACE(topo.name);
    const Graph g = topo.make();
    const CsrGraph c(g);
    std::mt19937_64 rng(0x5eed ^ g.node_count());
    // Mask densities from none to dense enough to disconnect most pairs.
    for (const double density : {0.0, 0.05, 0.2, 0.5}) {
      std::vector<char> mask(g.edge_count(), 0);
      std::bernoulli_distribution cut(density);
      for (char& m : mask) m = cut(rng) ? 1 : 0;
      for (const auto [s, t] : oracle_pairs(g, 60, rng())) {
        const auto want = reference_bfs(g, s, t, mask);
        (want ? reachable : unreachable) += 1;
        ASSERT_EQ(finder.bfs_shortest(g, s, t, mask), want)
            << s << "->" << t << " density " << density;
        ASSERT_EQ(finder.bfs_shortest(c, s, t, mask), want)
            << s << "->" << t << " density " << density;
      }
    }
    for (const auto [s, t] : oracle_pairs(g, 40, rng())) {
      const auto want = reference_edge_disjoint(g, s, t, 4);
      ASSERT_EQ(finder.edge_disjoint(g, s, t, 4), want) << s << "->" << t;
      ASSERT_EQ(finder.edge_disjoint(c, s, t, 4), want) << s << "->" << t;
    }
  }
  // Both outcomes must actually have been exercised.
  EXPECT_GT(reachable, 1000u);
  EXPECT_GT(unreachable, 100u);
}

TEST(BfsOracle, MaskThatSeversThePairOrEndsEarly) {
  const Graph g = topology::make_ripple_like(300, 13);
  const CsrGraph c(g);
  PathFinder finder;
  const NodeId s = 0, t = 299;
  // Cut every edge at t: unreachable however close the two balls get.
  std::vector<char> sever(g.edge_count(), 0);
  for (const ArcId a : g.out_arcs(t)) sever[edge_of(a)] = 1;
  EXPECT_FALSE(reference_bfs(g, s, t, sever).has_value());
  EXPECT_FALSE(finder.bfs_shortest(g, s, t, sever).has_value());
  EXPECT_FALSE(finder.bfs_shortest(c, s, t, sever).has_value());
  // A mask shorter than the edge list leaves the uncovered edges open.
  std::vector<char> prefix(g.edge_count() / 2, 1);
  const auto want = reference_bfs(g, s, t, prefix);
  EXPECT_EQ(finder.bfs_shortest(g, s, t, prefix), want);
  EXPECT_EQ(finder.bfs_shortest(c, s, t, prefix), want);
}

TEST(BfsOracle, DegenerateQueries) {
  const Graph g = topology::make_isp32();
  const CsrGraph c(g);
  PathFinder finder;
  const Path self{7, {}};
  EXPECT_EQ(finder.bfs_shortest(g, 7, 7), self);
  EXPECT_EQ(finder.bfs_shortest(c, 7, 7), self);
  EXPECT_EQ(finder.edge_disjoint(c, 7, 7, 2),
            reference_edge_disjoint(g, 7, 7, 2));
  EXPECT_FALSE(finder.bfs_shortest(g, 0, 32).has_value());
  EXPECT_FALSE(finder.bfs_shortest(c, 32, 0).has_value());
  EXPECT_TRUE(finder.edge_disjoint(c, 0, 99, 4).empty());
}

}  // namespace
}  // namespace spider::graph
