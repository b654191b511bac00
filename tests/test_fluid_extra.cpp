// Additional fluid-model and substrate coverage: the rebalancing budget
// on the *path* formulation, per-pair delivery caps, widest-path
// properties against max-flow, and MTU-splitting sweeps.

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "core/transport.hpp"
#include "fluid/circulation.hpp"
#include "fluid/throughput.hpp"
#include "graph/maxflow.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"

namespace spider {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FluidExtra, PathFormulationRespectsRebalancingBudget) {
  // One-way demand of 5 on a single channel: t(B) = min(B, 5) since each
  // delivered unit needs exactly one unit of rebalancing on the one hop.
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const fluid::PathSet sp = fluid::k_shortest_path_set(g, h, 1);
  const std::vector<double> cap(g.edge_count(), kInf);
  for (const double budget : {0.0, 1.5, 3.0, 5.0, 10.0}) {
    fluid::FluidOptions opt;
    opt.gamma = 0.0;
    opt.rebalancing_budget = budget;
    const auto sol = fluid::solve_path_lp(g, cap, h, sp, opt);
    ASSERT_TRUE(sol.optimal) << "budget " << budget;
    EXPECT_NEAR(sol.throughput, std::min(budget, 5.0), 1e-6);
    EXPECT_LE(sol.rebalancing_rate, budget + 1e-6);
  }
}

TEST(FluidExtra, PathAndArcFormulationsAgreeOnFig4) {
  // With every trail available, the path formulation matches the arc
  // formulation under finite capacities too.
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const fluid::PathSet all = fluid::all_trails_path_set(g, h);
  for (const double cap_units : {2.0, 4.0, 100.0}) {
    const std::vector<double> cap(g.edge_count(), cap_units);
    const auto path_sol = fluid::solve_path_lp(g, cap, h, all);
    const auto arc_sol = fluid::solve_arc_lp(g, cap, h);
    ASSERT_TRUE(path_sol.optimal && arc_sol.optimal);
    // The arc form admits cyclic flows, so it can only do better.
    EXPECT_GE(arc_sol.throughput, path_sol.throughput - 1e-5);
    // On this instance cycles don't help: equality.
    EXPECT_NEAR(arc_sol.throughput, path_sol.throughput, 1e-4)
        << "capacity " << cap_units;
  }
}

TEST(FluidExtra, EmptyDemandIsTriviallyOptimal) {
  const graph::Graph g = graph::topology::make_ring(4);
  const fluid::PaymentGraph h(4);
  const std::vector<double> cap(g.edge_count(), 10.0);
  const auto sol = fluid::solve_arc_lp(g, cap, h);
  EXPECT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 0.0, 1e-9);
  const auto psol =
      fluid::solve_path_lp(g, cap, h, fluid::PathSet{});
  EXPECT_TRUE(psol.optimal);
  EXPECT_NEAR(psol.throughput, 0.0, 1e-9);
}

TEST(FluidExtra, MissingPathsStarveThatPairOnly) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  fluid::PaymentGraph h(3);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 0, 2.0);
  h.set_demand(0, 2, 2.0);  // gets no paths below
  graph::PathFinder f;
  const fluid::PathSet ps(
      {{0, 1}, {1, 0}},
      {{*f.bfs_shortest(g, 0, 1)}, {*f.bfs_shortest(g, 1, 0)}}, 0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const auto sol = fluid::solve_path_lp(g, cap, h, ps);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 4.0, 1e-6);
  const auto ds = h.demands();
  for (std::size_t k = 0; k < ds.size(); ++k) {
    if (ds[k].src == 0 && ds[k].dst == 2) {
      EXPECT_NEAR(sol.delivered[k], 0.0, 1e-9);
    } else {
      EXPECT_NEAR(sol.delivered[k], 2.0, 1e-6);
    }
  }
}

// Widest path properties against exact max-flow on random graphs.
class WidestPathPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WidestPathPropertyTest, BottleneckBoundsAndDominance) {
  const graph::Graph g =
      graph::topology::make_erdos_renyi(12, 0.3, GetParam());
  std::mt19937_64 rng(GetParam() * 13 + 1);
  std::uniform_real_distribution<double> cap_dist(1.0, 50.0);
  std::vector<double> caps(g.arc_count());
  for (double& c : caps) c = cap_dist(rng);
  auto capfn = [&caps](graph::ArcId a) { return caps[a]; };

  const graph::NodeId s = 0;
  const auto t = static_cast<graph::NodeId>(g.node_count() - 1);
  graph::PathFinder f;
  const auto widest = f.widest(g, s, t, capfn);
  ASSERT_TRUE(widest.has_value());
  const double widest_bn = graph::path_bottleneck(*widest, capfn);

  // Dominates the BFS shortest path's bottleneck.
  const auto bfs = f.bfs_shortest(g, s, t);
  ASSERT_TRUE(bfs.has_value());
  EXPECT_GE(widest_bn, graph::path_bottleneck(*bfs, capfn) - 1e-9);

  // A single path can never beat the max-flow value; and the max flow is
  // at least the widest path's bottleneck.
  const double mf = graph::max_flow_value(g, s, t, caps);
  EXPECT_LE(widest_bn, mf + 1e-9);

  // Dominates every path Yen enumerates.
  for (const graph::Path& p : f.yen(g, s, t, 10)) {
    EXPECT_GE(widest_bn, graph::path_bottleneck(p, capfn) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidestPathPropertyTest,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

// MTU splitting sweep: unit counts, sizes, and totals for many
// (amount, mtu) combinations.
class MtuSweepTest
    : public ::testing::TestWithParam<std::pair<core::Amount, core::Amount>> {
};

TEST_P(MtuSweepTest, SplitIsExact) {
  const auto [amount, mtu] = GetParam();
  core::Transport t(0, 1);
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 1;
  req.amount = amount;
  const auto units = t.begin_payment(1, req, mtu);
  const auto expected_count =
      static_cast<std::size_t>((amount + mtu - 1) / mtu);
  ASSERT_EQ(units.size(), expected_count);
  core::Amount total = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_GT(units[i].amount, 0);
    EXPECT_LE(units[i].amount, mtu);
    if (i + 1 < units.size()) EXPECT_EQ(units[i].amount, mtu);
    EXPECT_EQ(units[i].id.seq, i);
    total += units[i].amount;
  }
  EXPECT_EQ(total, amount);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MtuSweepTest,
    ::testing::Values(std::pair<core::Amount, core::Amount>{1, 1},
                      std::pair<core::Amount, core::Amount>{999, 1000},
                      std::pair<core::Amount, core::Amount>{1000, 1000},
                      std::pair<core::Amount, core::Amount>{1001, 1000},
                      std::pair<core::Amount, core::Amount>{123456, 1000},
                      std::pair<core::Amount, core::Amount>{7, 3}));

TEST(FluidExtra, GreedyPeelAgreesOnPureCycles) {
  // On a graph whose demands are already a circulation, the greedy peel
  // is exact regardless of order.
  fluid::PaymentGraph h(4);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 2, 2.0);
  h.set_demand(2, 3, 2.0);
  h.set_demand(3, 0, 2.0);
  ASSERT_TRUE(h.is_circulation());
  const auto greedy = fluid::peel_circulation(h);
  const auto exact = fluid::max_circulation(h);
  EXPECT_NEAR(greedy.circulation_value, exact.circulation_value, 1e-6);
  EXPECT_NEAR(greedy.circulation_value, 8.0, 1e-9);
  EXPECT_NEAR(greedy.dag_value, 0.0, 1e-9);
}

}  // namespace
}  // namespace spider
