// Sharded path precomputation: deterministic chunking, table contents
// identical to lazy per-pair computation, and byte-identical results at
// any thread count (the DESIGN.md §7 contract extended to setup work).
// Also covers the PathTable container, the PathCache it seeds (and that
// cache's consumer, PacketSimulator cfg.paths), plus the topology-name
// 'k' suffix fix.

#include <gtest/gtest.h>

#include "exp/path_precompute.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "fluid/throughput.hpp"
#include "graph/csr.hpp"
#include "graph/path_cache.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "sim/packet_sim.hpp"
#include "workload/workload.hpp"

namespace {

using namespace spider;
using graph::CsrGraph;
using graph::Graph;
using graph::NodeId;
using graph::Path;
using graph::PathTable;

std::vector<PathTable::Pair> cross_pairs(NodeId n, NodeId stride) {
  std::vector<PathTable::Pair> pairs;
  for (NodeId s = 0; s < n; s += stride) {
    for (NodeId t = 0; t < n; t += stride) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

TEST(PathPrecomputePlan, ChunksPartitionThePairList) {
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(32, 4), 10);
  ASSERT_FALSE(plan.pairs.empty());
  ASSERT_FALSE(plan.chunks.empty());
  EXPECT_EQ(plan.chunk_size, 10u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const exp::PrecomputeChunk& c = plan.chunks[i];
    EXPECT_EQ(c.begin, covered);
    EXPECT_GT(c.end, c.begin);
    EXPECT_LE(c.end - c.begin, 10u);
    covered = c.end;
  }
  EXPECT_EQ(covered, plan.pairs.size());
}

TEST(PathPrecomputePlan, CanonicalisesPairOrder) {
  std::vector<PathTable::Pair> shuffled = {{5, 1}, {0, 3}, {5, 1}, {2, 4}};
  auto plan = exp::PathPrecomputePlan::make(shuffled, 2);
  const std::vector<PathTable::Pair> want = {{0, 3}, {2, 4}, {5, 1}};
  EXPECT_EQ(plan.pairs, want);  // sorted, deduplicated
}

TEST(PathPrecomputePlan, DefaultChunkSizeNonZero) {
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(8, 2), 0);
  EXPECT_GT(plan.chunk_size, 0u);
  ASSERT_EQ(plan.chunks.size(), 1u);  // few pairs fit one default chunk
  EXPECT_EQ(plan.chunks[0].end, plan.pairs.size());
}

TEST(PrecomputePaths, MatchesLazyEdgeDisjoint) {
  const Graph g = graph::topology::make_isp32();
  const CsrGraph csr(g);
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(32, 3), 5);
  const exp::Runner runner(2);
  const PathTable table = exp::precompute_paths(csr, plan, 4, runner);
  EXPECT_EQ(table.pair_count(), plan.pairs.size());
  EXPECT_EQ(table.k(), 4u);
  graph::PathFinder finder;
  for (const auto& [s, t] : plan.pairs) {
    const auto got = table.find(s, t);
    const auto want = finder.edge_disjoint(g, s, t, 4);
    ASSERT_EQ(got.size(), want.size()) << s << "->" << t;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << s << "->" << t << " path " << i;
    }
  }
}

TEST(PrecomputePaths, ByteIdenticalAtAnyThreadCount) {
  const Graph g = graph::topology::make_ripple_like(200, 13);
  const CsrGraph csr(g);
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(200, 17), 8);
  const PathTable serial =
      exp::precompute_paths(csr, plan, 4, exp::Runner(1));
  const std::uint64_t want = serial.checksum();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const PathTable parallel =
        exp::precompute_paths(csr, plan, 4, exp::Runner(threads));
    EXPECT_EQ(parallel.checksum(), want) << threads << " threads";
    ASSERT_EQ(parallel.pair_count(), serial.pair_count());
    ASSERT_EQ(parallel.path_count(), serial.path_count());
    for (const auto& [s, t] : plan.pairs) {
      const auto a = serial.find(s, t);
      const auto b = parallel.find(s, t);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(PathTable, MissingPairYieldsEmptyAndNoCoverage) {
  const PathTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.find(0, 1).empty());
  EXPECT_FALSE(empty.has_pair(0, 1));

  const Graph g = graph::topology::make_fig4_example();
  auto plan = exp::PathPrecomputePlan::make({{0, 4}}, 1);
  const PathTable table =
      exp::precompute_paths(CsrGraph(g), plan, 4, exp::Runner(1));
  EXPECT_TRUE(table.has_pair(0, 4));
  EXPECT_FALSE(table.find(0, 4).empty());
  EXPECT_FALSE(table.has_pair(1, 2));  // computable but not covered
  EXPECT_TRUE(table.find(1, 2).empty());
}

TEST(PathTable, CoveredDisconnectedPairIsEmptyButPresent) {
  Graph g(3);
  g.add_edge(0, 1);  // node 2 is isolated
  auto plan = exp::PathPrecomputePlan::make({{0, 1}, {0, 2}}, 4);
  const PathTable table =
      exp::precompute_paths(CsrGraph(g), plan, 4, exp::Runner(1));
  EXPECT_TRUE(table.has_pair(0, 2));
  EXPECT_TRUE(table.find(0, 2).empty());
  EXPECT_EQ(table.find(0, 1).size(), 1u);
}

TEST(PacketSim, PrecomputedTableIsByteIdenticalToLazy) {
  const Graph g = graph::topology::make_isp32();
  const workload::WorkloadConfig wc = workload::isp_workload(400, 30.0, 99);
  const workload::Trace trace = workload::generate_trace(g, wc);

  std::vector<PathTable::Pair> pairs;
  for (const workload::Transaction& tx : trace) pairs.emplace_back(tx.src, tx.dst);
  auto plan = exp::PathPrecomputePlan::make(std::move(pairs), 16);
  const PathTable table =
      exp::precompute_paths(CsrGraph(g), plan, 4, exp::Runner(2));
  // A table over every other pair: the rest are cache misses the
  // simulator's PathCache computes itself.
  std::vector<PathTable::Pair> alternate;
  for (std::size_t i = 0; i < plan.pairs.size(); i += 2) {
    alternate.push_back(plan.pairs[i]);
  }
  ASSERT_LT(alternate.size(), plan.pairs.size());
  const PathTable half = exp::precompute_paths(
      CsrGraph(g), exp::PathPrecomputePlan::make(std::move(alternate), 16), 4,
      exp::Runner(2));

  auto run = [&](const PathTable* warm) {
    sim::PacketSimConfig cfg;
    cfg.end_time = 30.0;
    cfg.seed = 99;
    cfg.paths = warm;
    sim::PacketSimulator ps(
        g, std::vector<core::Amount>(g.edge_count(), core::from_units(500.0)),
        cfg);
    for (const workload::Transaction& tx : trace) {
      core::PaymentRequest req;
      req.src = tx.src;
      req.dst = tx.dst;
      req.amount = tx.amount;
      req.arrival = tx.arrival;
      ps.submit(req);
    }
    return ps.run();
  };
  const sim::Metrics lazy = run(nullptr);
  const sim::Metrics warmed = run(&table);
  const sim::Metrics half_warmed = run(&half);
  EXPECT_EQ(exp::report::metrics_to_json(lazy).dump(),
            exp::report::metrics_to_json(warmed).dump());
  EXPECT_EQ(exp::report::metrics_to_json(lazy).dump(),
            exp::report::metrics_to_json(half_warmed).dump());
  EXPECT_GT(lazy.succeeded, 0u);
}

TEST(PacketSim, TableBuiltAtAnotherKThrows) {
  // The simulator's candidate sets are k = 4; a k = 2 table would mix
  // path-set sizes into one run.
  const Graph g = graph::topology::make_isp32();
  const PathTable k2 = exp::precompute_paths(
      CsrGraph(g), exp::PathPrecomputePlan::make({{3, 29}}), 2,
      exp::Runner(1));
  sim::PacketSimConfig cfg;
  cfg.paths = &k2;
  EXPECT_THROW(sim::PacketSimulator(
                   g, std::vector<core::Amount>(g.edge_count(), 1000), cfg),
               std::invalid_argument);
}

TEST(PathCache, CachesAndValidates) {
  const Graph g = graph::topology::make_isp32();
  graph::PathCache cache(&g, graph::PathMode::kEdgeDisjoint, 4);
  const auto p1 = cache.paths(3, 29);
  EXPECT_FALSE(p1.empty());
  EXPECT_EQ(cache.cached_pairs(), 1u);
  const auto p2 = cache.paths(3, 29);
  EXPECT_EQ(p1.data(), p2.data());  // same cached store, not a recompute
  EXPECT_EQ(p1.size(), p2.size());
  graph::PathCache unbound;
  EXPECT_THROW((void)unbound.paths(0, 1), std::logic_error);

  // Misses in every mode equal a fresh PathFinder's answer.
  for (const graph::PathMode mode :
       {graph::PathMode::kShortest, graph::PathMode::kEdgeDisjoint,
        graph::PathMode::kKShortest}) {
    graph::PathCache c(&g, mode, 3);
    for (const auto& [s, t] : cross_pairs(32, 7)) {
      std::vector<Path> want;
      graph::PathFinder f;
      switch (mode) {
        case graph::PathMode::kShortest:
          if (auto p = f.bfs_shortest(g, s, t)) want.push_back(*p);
          break;
        case graph::PathMode::kEdgeDisjoint:
          want = f.edge_disjoint(g, s, t, 3);
          break;
        case graph::PathMode::kKShortest:
          want = f.yen(g, s, t, 3);
          break;
      }
      const auto got = c.paths(s, t);
      EXPECT_EQ(std::vector<Path>(got.begin(), got.end()), want)
          << static_cast<int>(mode) << ": " << s << "->" << t;
    }
  }

  // A seeded cache serves covered pairs from the table without copying
  // and computes the rest itself, identically to an unseeded cache.
  const PathTable table = exp::precompute_paths(
      CsrGraph(g), exp::PathPrecomputePlan::make({{3, 29}, {8, 20}}), 4,
      exp::Runner(1));
  graph::PathCache seeded(&g, graph::PathMode::kEdgeDisjoint, 4, &table);
  const auto hit = seeded.paths(3, 29);
  ASSERT_FALSE(hit.empty());
  EXPECT_GE(hit.data(), table.paths().data());
  EXPECT_LE(hit.data() + hit.size(),
            table.paths().data() + table.paths().size());
  EXPECT_EQ(seeded.cached_pairs(), 0u);
  const auto miss = seeded.paths(0, 31);
  EXPECT_EQ(seeded.cached_pairs(), 1u);
  const auto want = cache.paths(0, 31);
  EXPECT_EQ(std::vector<Path>(miss.begin(), miss.end()),
            std::vector<Path>(want.begin(), want.end()));
  EXPECT_EQ(seeded.paths(0, 31).data(), miss.data());

  // The seed must hold what the cache would compute.
  EXPECT_THROW(graph::PathCache(&g, graph::PathMode::kEdgeDisjoint, 2, &table),
               std::invalid_argument);
  EXPECT_THROW(graph::PathCache(&g, graph::PathMode::kKShortest, 4, &table),
               std::invalid_argument);

  // The fluid path sets are PathTables too. Only the edge-disjoint one
  // records its k, so only it seeds a cache; the Yen and all-trails sets
  // record k = 0 and are refused.
  fluid::PaymentGraph h(g.node_count());
  for (const auto& [s, t] : cross_pairs(32, 7)) h.set_demand(s, t, 1.0);
  const PathTable yen = fluid::k_shortest_path_set(g, h, 4);
  EXPECT_EQ(yen.k(), 0u);
  EXPECT_THROW(graph::PathCache(&g, graph::PathMode::kEdgeDisjoint, 4, &yen),
               std::invalid_argument);
  const graph::Graph small = graph::topology::make_fig4_example();
  const fluid::PaymentGraph fig4 = fluid::fig4_payment_graph();
  const PathTable trails = fluid::all_trails_path_set(small, fig4);
  EXPECT_EQ(trails.k(), 0u);
  EXPECT_THROW(
      graph::PathCache(&small, graph::PathMode::kEdgeDisjoint, 4, &trails),
      std::invalid_argument);
  const PathTable disjoint = fluid::edge_disjoint_path_set(g, h, 4);
  EXPECT_EQ(disjoint.k(), 4u);
  graph::PathCache from_fluid(&g, graph::PathMode::kEdgeDisjoint, 4,
                              &disjoint);
  graph::PathCache unseeded(&g, graph::PathMode::kEdgeDisjoint, 4);
  for (const auto& [s, t] : disjoint.pairs()) {
    const auto got = from_fluid.paths(s, t);
    const auto want = unseeded.paths(s, t);
    EXPECT_EQ(std::vector<Path>(got.begin(), got.end()),
              std::vector<Path>(want.begin(), want.end()))
        << s << "->" << t;
  }
  EXPECT_EQ(from_fluid.cached_pairs(), 0u);
}

TEST(NamedTopology, KSuffixMultipliesByThousand) {
  // "lightning-1k" must be 1000 nodes -- std::stoull used to silently
  // parse "1k" as 1 and build a graph 1000x too small.
  const Graph g = exp::make_named_topology("lightning-1k");
  EXPECT_EQ(g.node_count(), 1000u);
  const Graph r = exp::make_named_topology("ripple-3774");
  EXPECT_EQ(r.node_count(), 3774u);
}

TEST(NamedTopology, RejectsMalformedSizeSuffixes) {
  EXPECT_THROW((void)exp::make_named_topology("ripple-"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-12x"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-k"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-1k2"),
               std::invalid_argument);
}

}  // namespace
