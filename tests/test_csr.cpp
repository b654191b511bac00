// CsrGraph freeze correctness: the frozen arena view must agree with
// the adjacency-list Graph on every accessor and preserve neighbour
// order exactly (the byte-identity foundation for every differential
// test downstream), and PathFinder over CSR must reproduce the legacy
// free functions arc-for-arc.

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"

namespace {

using namespace spider;
using graph::ArcId;
using graph::CsrGraph;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using graph::Path;

void expect_same_view(const Graph& g, const CsrGraph& c) {
  ASSERT_EQ(g.node_count(), c.node_count());
  ASSERT_EQ(g.edge_count(), c.edge_count());
  ASSERT_EQ(g.arc_count(), c.arc_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(g.degree(u), c.degree(u));
    const auto ga = g.out_arcs(u);
    const auto ca = c.out_arcs(u);
    ASSERT_EQ(ga.size(), ca.size()) << "node " << u;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i], ca[i]) << "node " << u << " slot " << i;
    }
  }
  for (ArcId a = 0; a < g.arc_count(); ++a) {
    EXPECT_EQ(g.head(a), c.head(a));
    EXPECT_EQ(g.tail(a), c.tail(a));
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(g.edge_u(e), c.edge_u(e));
    EXPECT_EQ(g.edge_v(e), c.edge_v(e));
  }
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph c{Graph{}};
  EXPECT_EQ(c.node_count(), 0u);
  EXPECT_EQ(c.edge_count(), 0u);
  EXPECT_EQ(c.arc_count(), 0u);
  EXPECT_GT(c.memory_bytes(), 0u);  // the offsets sentinel
}

TEST(CsrGraph, IsolatedNodes) {
  const CsrGraph c{Graph{4}};
  EXPECT_EQ(c.node_count(), 4u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(c.degree(u), 0u);
    EXPECT_TRUE(c.out_arcs(u).empty());
  }
}

TEST(CsrGraph, MatchesGraphAccessors) {
  expect_same_view(graph::topology::make_fig4_example(),
                   CsrGraph{graph::topology::make_fig4_example()});
  const Graph isp = graph::topology::make_isp32();
  expect_same_view(isp, CsrGraph{isp});
  const Graph ripple = graph::topology::make_ripple_like(200, 13);
  expect_same_view(ripple, CsrGraph{ripple});
}

TEST(CsrGraph, ParallelEdgesPreserved) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  const CsrGraph c(g);
  expect_same_view(g, c);
  EXPECT_EQ(c.degree(0), 2u);
  // find_edge returns the first incident match, like Graph.
  EXPECT_EQ(c.find_edge(0, 1), g.find_edge(0, 1));
  EXPECT_TRUE(c.has_edge(0, 1));
  EXPECT_TRUE(c.has_edge(1, 0));
}

TEST(CsrGraph, FindEdgeMisses) {
  Graph g(3);
  g.add_edge(0, 1);
  const CsrGraph c(g);
  EXPECT_EQ(c.find_edge(0, 2), graph::kInvalidEdge);
  EXPECT_FALSE(c.has_edge(1, 2));
}

TEST(CsrGraph, ChecksumFingerprintsTopology) {
  const Graph isp = graph::topology::make_isp32();
  const CsrGraph a(isp);
  const CsrGraph b(isp);
  EXPECT_EQ(a.checksum(), b.checksum());  // same graph, same arena
  const CsrGraph other(graph::topology::make_ripple_like(100, 13));
  EXPECT_NE(a.checksum(), other.checksum());
}

TEST(CsrGraph, MoveKeepsViewValid) {
  const Graph isp = graph::topology::make_isp32();
  CsrGraph a(isp);
  const CsrGraph b = std::move(a);
  expect_same_view(isp, b);  // index-based bases survive the move
}

TEST(CsrGraph, PathHelpersWork) {
  const Graph g = graph::topology::make_fig4_example();
  const CsrGraph c(g);
  graph::PathFinder f;
  const auto p = f.bfs_shortest(c, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->destination(c), 3u);
  EXPECT_EQ(p->nodes(c), p->nodes(g));
  EXPECT_EQ(graph::to_string(*p, c), graph::to_string(*p, g));
}

// ---- PathFinder differentials: CSR vs legacy adjacency-list runs ----

class PathFinderDifferential : public ::testing::Test {
 protected:
  void check_pair(const Graph& g, const CsrGraph& c, graph::PathFinder& f,
                  NodeId s, NodeId t) {
    const graph::ArcWeightFn unit_w = [](ArcId) { return 1.0; };
    const graph::ArcWeightFn var_w = [](ArcId a) {
      return 1.0 + static_cast<double>(graph::edge_of(a) % 5);
    };
    const graph::ArcWeightFn cap = [](ArcId a) {
      return 10.0 + static_cast<double>((a * 7) % 13);
    };
    // A fresh finder per adjacency-list query against `f`, whose
    // scratch is reused across every CSR query.
    using graph::PathFinder;
    EXPECT_EQ(PathFinder().bfs_shortest(g, s, t), f.bfs_shortest(c, s, t));
    EXPECT_EQ(PathFinder().dijkstra(g, s, t, var_w),
              f.dijkstra(c, s, t, var_w));
    EXPECT_EQ(PathFinder().yen(g, s, t, 4, unit_w), f.yen(c, s, t, 4, unit_w));
    EXPECT_EQ(PathFinder().edge_disjoint(g, s, t, 4),
              f.edge_disjoint(c, s, t, 4));
    EXPECT_EQ(PathFinder().widest(g, s, t, cap), f.widest(c, s, t, cap));
    EXPECT_EQ(PathFinder().edge_disjoint_widest(g, s, t, 3, cap),
              f.edge_disjoint_widest(c, s, t, 3, cap));
  }
};

TEST_F(PathFinderDifferential, MatchesLegacyOnIsp32) {
  const Graph g = graph::topology::make_isp32();
  const CsrGraph c(g);
  graph::PathFinder f;  // one finder, scratch reused across every query
  for (const auto [s, t] : {std::pair<NodeId, NodeId>{0, 31},
                            {8, 20},
                            {3, 3},
                            {15, 2},
                            {31, 0}}) {
    check_pair(g, c, f, s, t);
  }
}

TEST_F(PathFinderDifferential, MatchesLegacyOnRipple) {
  const Graph g = graph::topology::make_ripple_like(300, 13);
  const CsrGraph c(g);
  graph::PathFinder f;
  for (const auto [s, t] : {std::pair<NodeId, NodeId>{0, 299},
                            {250, 10},
                            {42, 43},
                            {299, 1}}) {
    check_pair(g, c, f, s, t);
  }
}

TEST_F(PathFinderDifferential, ScratchSurvivesGraphSwitches) {
  // The same finder must answer correctly when hopping between graphs
  // of different sizes (buffers grow, stamps invalidate stale marks).
  const Graph small = graph::topology::make_fig4_example();
  const Graph big = graph::topology::make_ripple_like(400, 13);
  const CsrGraph cs(small), cb(big);
  graph::PathFinder f;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(graph::PathFinder().bfs_shortest(small, 0, 4),
              f.bfs_shortest(cs, 0, 4));
    EXPECT_EQ(graph::PathFinder().edge_disjoint(big, 0, 399, 4),
              f.edge_disjoint(cb, 0, 399, 4));
    EXPECT_EQ(graph::PathFinder().yen(small, 0, 3, 3), f.yen(cs, 0, 3, 3));
  }
}

TEST_F(PathFinderDifferential, BlockedEdgesRespected) {
  const Graph g = graph::topology::make_fig4_example();
  const CsrGraph c(g);
  graph::PathFinder f;
  std::vector<char> blocked(g.edge_count(), 0);
  blocked[0] = 1;  // cut 0-1: node 0 is isolated
  EXPECT_EQ(graph::PathFinder().bfs_shortest(g, 0, 4, blocked),
            f.bfs_shortest(c, 0, 4, blocked));
  EXPECT_FALSE(f.bfs_shortest(c, 0, 4, blocked).has_value());
}

TEST_F(PathFinderDifferential, FreshFinderPerView) {
  // One fresh finder per query on each view: no scratch is shared.
  using graph::PathFinder;
  const Graph g = graph::topology::make_isp32();
  const CsrGraph c(g);
  EXPECT_EQ(PathFinder().bfs_shortest(g, 0, 20),
            PathFinder().bfs_shortest(c, 0, 20));
  EXPECT_EQ(PathFinder().edge_disjoint(g, 0, 20, 4),
            PathFinder().edge_disjoint(c, 0, 20, 4));
  const graph::ArcWeightFn w = [](ArcId a) { return 1.0 + (a % 3); };
  EXPECT_EQ(PathFinder().dijkstra(g, 0, 20, w),
            PathFinder().dijkstra(c, 0, 20, w));
  EXPECT_EQ(PathFinder().yen(g, 0, 20, 3, w), PathFinder().yen(c, 0, 20, 3, w));
  EXPECT_EQ(PathFinder().widest(g, 0, 20, w), PathFinder().widest(c, 0, 20, w));
  EXPECT_EQ(PathFinder().edge_disjoint_widest(g, 0, 20, 3, w),
            PathFinder().edge_disjoint_widest(c, 0, 20, 3, w));
}

TEST_F(PathFinderDifferential, DijkstraNegativeWeightThrows) {
  const CsrGraph c(graph::topology::make_fig4_example());
  graph::PathFinder f;
  const graph::ArcWeightFn bad = [](ArcId) { return -1.0; };
  EXPECT_THROW((void)f.dijkstra(c, 0, 4, bad), std::invalid_argument);
}

TEST(GraphReserve, BulkBuildMatchesIncremental) {
  Graph a(100);
  Graph b(100);
  b.reserve(100, 99);
  for (NodeId i = 0; i + 1 < 100; ++i) {
    a.add_edge(i, i + 1);
    b.add_edge(i, i + 1);
  }
  EXPECT_EQ(CsrGraph(a).checksum(), CsrGraph(b).checksum());
  EXPECT_EQ(b.edge_count(), 99u);
}

}  // namespace
