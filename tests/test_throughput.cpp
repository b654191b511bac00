#include "fluid/throughput.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "fluid/circulation.hpp"
#include "graph/topology.hpp"

namespace spider::fluid {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> caps(const Graph& g, double c) {
  return std::vector<double>(g.edge_count(), c);
}

TEST(Throughput, Fig4ShortestPathBalancedIs5) {
  // Paper Fig. 4b: shortest-path balanced routing moves 5 units.
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  const PathSet sp = k_shortest_path_set(g, h, 1);
  const auto cap = caps(g, kInf);
  const FluidSolution sol = solve_path_lp(g, cap, h, sp);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 5.0, 1e-6);
}

TEST(Throughput, Fig4OptimalBalancedIs8) {
  // Paper Fig. 4c / Proposition 1: optimal balanced routing moves 8 units
  // == nu(C*).
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  const auto cap = caps(g, kInf);
  const PathSet all = all_trails_path_set(g, h);
  const FluidSolution path_sol = solve_path_lp(g, cap, h, all);
  ASSERT_TRUE(path_sol.optimal);
  EXPECT_NEAR(path_sol.throughput, 8.0, 1e-6);

  const FluidSolution arc_sol = solve_arc_lp(g, cap, h);
  ASSERT_TRUE(arc_sol.optimal);
  EXPECT_NEAR(arc_sol.throughput, 8.0, 1e-6);

  EXPECT_NEAR(max_circulation_value(h), 8.0, 1e-6);
}

TEST(Throughput, BalanceConstraintHolds) {
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  const auto cap = caps(g, kInf);
  const PathSet all = all_trails_path_set(g, h);
  const FluidSolution sol = solve_path_lp(g, cap, h, all);
  ASSERT_TRUE(sol.optimal);
  std::vector<double> arc_rate(g.arc_count(), 0.0);
  for (std::size_t i = 0; i < all.path_count(); ++i) {
    if (sol.path_rate[i] <= 1e-9) continue;
    for (const graph::ArcId a : all.paths()[i].arcs) {
      arc_rate[a] += sol.path_rate[i];
    }
  }
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_NEAR(arc_rate[graph::forward_arc(e)],
                arc_rate[graph::backward_arc(e)], 1e-6)
        << "edge " << e << " imbalanced";
  }
}

TEST(Throughput, CapacityCapsThroughput) {
  // Two nodes, demand 10 each way, channel capacity 4, delta 1:
  // total rate (both directions) <= 4.
  Graph g(2);
  g.add_edge(0, 1);
  PaymentGraph h(2);
  h.set_demand(0, 1, 10);
  h.set_demand(1, 0, 10);
  const PathSet sp = k_shortest_path_set(g, h, 1);
  FluidOptions opt;
  opt.delta = 1.0;
  const FluidSolution sol = solve_path_lp(g, caps(g, 4.0), h, sp, opt);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 4.0, 1e-6);
}

TEST(Throughput, DeltaScalesCapacity) {
  Graph g(2);
  g.add_edge(0, 1);
  PaymentGraph h(2);
  h.set_demand(0, 1, 10);
  h.set_demand(1, 0, 10);
  const PathSet sp = k_shortest_path_set(g, h, 1);
  FluidOptions opt;
  opt.delta = 2.0;  // confirmation twice as slow => half the rate
  const FluidSolution sol = solve_path_lp(g, caps(g, 4.0), h, sp, opt);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 2.0, 1e-6);
}

TEST(Throughput, DemandCapsThroughput) {
  Graph g(2);
  g.add_edge(0, 1);
  PaymentGraph h(2);
  h.set_demand(0, 1, 1.5);
  h.set_demand(1, 0, 3.0);
  const PathSet sp = k_shortest_path_set(g, h, 1);
  const FluidSolution sol = solve_path_lp(g, caps(g, kInf), h, sp);
  ASSERT_TRUE(sol.optimal);
  // Balance limits each direction to min(1.5, 3.0).
  EXPECT_NEAR(sol.throughput, 3.0, 1e-6);
}

TEST(Throughput, RebalancingUnlocksDagDemand) {
  // Pure one-way demand is unroutable when balanced, fully routable with
  // cheap on-chain rebalancing (gamma < 1).
  Graph g(2);
  g.add_edge(0, 1);
  PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const PathSet sp = k_shortest_path_set(g, h, 1);

  const FluidSolution balanced = solve_path_lp(g, caps(g, kInf), h, sp);
  ASSERT_TRUE(balanced.optimal);
  EXPECT_NEAR(balanced.throughput, 0.0, 1e-6);

  FluidOptions opt;
  opt.gamma = 0.1;
  const FluidSolution rebal = solve_path_lp(g, caps(g, kInf), h, sp, opt);
  ASSERT_TRUE(rebal.optimal);
  EXPECT_NEAR(rebal.throughput, 5.0, 1e-6);
  EXPECT_NEAR(rebal.rebalancing_rate, 5.0, 1e-6);
  EXPECT_NEAR(rebal.objective, 5.0 - 0.1 * 5.0, 1e-6);
}

TEST(Throughput, LargeGammaDisablesRebalancing) {
  Graph g(2);
  g.add_edge(0, 1);
  PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const PathSet sp = k_shortest_path_set(g, h, 1);
  FluidOptions opt;
  opt.gamma = 100.0;  // rebalancing never pays off
  const FluidSolution sol = solve_path_lp(g, caps(g, kInf), h, sp, opt);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, 0.0, 1e-6);
  EXPECT_NEAR(sol.rebalancing_rate, 0.0, 1e-6);
}

TEST(Throughput, TbCurveMonotoneAndConcaveOnFig4) {
  // Paper §5.2.3: t(B) is non-decreasing and concave.
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  const auto cap = caps(g, kInf);
  const std::vector<double> budgets{0, 1, 2, 3, 4, 5, 6, 8};
  const std::vector<double> t =
      throughput_vs_rebalancing(g, cap, h, budgets);
  ASSERT_EQ(t.size(), budgets.size());
  EXPECT_NEAR(t[0], 8.0, 1e-6);  // B=0 => nu(C*)
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i], t[i - 1] - 1e-6);  // non-decreasing
  }
  // Concavity of the piecewise curve at equally-informative triples.
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    const double lhs = (t[i] - t[i - 1]) / (budgets[i] - budgets[i - 1]);
    const double rhs = (t[i + 1] - t[i]) / (budgets[i + 1] - budgets[i]);
    EXPECT_GE(lhs, rhs - 1e-6);  // decreasing marginal gain
  }
  // Enough budget delivers the whole demand (DAG value is 4; every DAG
  // unit needs at most a few rebalanced hops).
  EXPECT_NEAR(t.back(), 12.0, 1e-6);
}

TEST(Throughput, DeliveredPerPairMatchesTotals) {
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  const auto cap = caps(g, kInf);
  const PathSet all = all_trails_path_set(g, h);
  const FluidSolution sol = solve_path_lp(g, cap, h, all);
  ASSERT_TRUE(sol.optimal);
  double total = 0;
  const auto ds = h.demands();
  ASSERT_EQ(sol.delivered.size(), ds.size());
  for (std::size_t k = 0; k < ds.size(); ++k) {
    EXPECT_LE(sol.delivered[k], ds[k].rate + 1e-6);
    total += sol.delivered[k];
  }
  EXPECT_NEAR(total, sol.throughput, 1e-6);
}

TEST(Throughput, BadCapacityVectorThrows) {
  const Graph g = graph::topology::make_fig4_example();
  const PaymentGraph h = fig4_payment_graph();
  EXPECT_THROW(
      (void)solve_arc_lp(g, std::vector<double>{1.0}, h),
      std::invalid_argument);
  EXPECT_THROW(
      (void)solve_arc_lp(g, std::vector<double>(5, -1.0), h),
      std::invalid_argument);
}

// Proposition 1 as a property: on random topologies and random demands,
// the arc LP with unlimited capacity equals the payment graph's maximum
// circulation value.
class Prop1PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Prop1PropertyTest, BalancedThroughputEqualsMaxCirculation) {
  std::mt19937_64 rng(GetParam() * 977 + 5);
  const Graph g = graph::topology::make_erdos_renyi(7, 0.45, GetParam());
  PaymentGraph h(g.node_count());
  std::uniform_real_distribution<double> rate(0.5, 3.0);
  std::bernoulli_distribution has_demand(0.35);
  for (NodeId i = 0; i < g.node_count(); ++i) {
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (i != j && has_demand(rng)) h.set_demand(i, j, rate(rng));
    }
  }
  const double nu = max_circulation_value(h);
  const auto cap = caps(g, kInf);
  const FluidSolution sol = solve_arc_lp(g, cap, h);
  ASSERT_TRUE(sol.optimal);
  EXPECT_NEAR(sol.throughput, nu, 1e-5)
      << "Prop 1 violated on seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop1PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace spider::fluid
