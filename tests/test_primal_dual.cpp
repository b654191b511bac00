#include "routing/primal_dual.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "fluid/throughput.hpp"
#include "graph/topology.hpp"

namespace spider::routing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Projection, InsideSetUnchanged) {
  std::vector<double> x{0.5, 0.3};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 0.3);
}

TEST(Projection, NegativesClipped) {
  std::vector<double> x{-1.0, 0.5};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(Projection, OverCapProjectsToSimplexFace) {
  std::vector<double> x{3.0, 1.0};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-12);
  // Euclidean projection of (3,1) onto {sum==2}: subtract 1 from each.
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(Projection, UnevenBreakpoint) {
  std::vector<double> x{5.0, 0.1};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[0], 2.0, 1e-12);  // tau = 3 > 0.1 knocks x[1] to zero
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(PrimalDual, ConvergesToFig4OptimumOnAllTrails) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::all_trails_path_set(g, h);
  PrimalDualOptions opt;
  opt.alpha = 0.02;
  opt.kappa = 0.02;
  opt.eta = 0.02;
  opt.iterations = 30000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  // LP optimum is 8 (Proposition 1); primal-dual should approach it.
  EXPECT_NEAR(res.throughput, 8.0, 0.25);
  EXPECT_FALSE(res.history.empty());
}

TEST(PrimalDual, RespectsBalancePrices) {
  // One-way demand on a single channel: balanced throughput must go to 0.
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 40000;
  opt.alpha = 0.01;
  opt.kappa = 0.01;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_LT(res.throughput, 0.6);
}

TEST(PrimalDual, RebalancingRecoversOneWayDemand) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.gamma = 0.05;  // cheap rebalancing
  opt.iterations = 40000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_NEAR(res.throughput, 5.0, 0.5);
  EXPECT_GT(res.rebalancing_rate, 3.0);
}

TEST(PrimalDual, SymmetricDemandSaturates) {
  // Balanced two-way demand should be fully served.
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 0, 2.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 20000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_NEAR(res.throughput, 4.0, 0.2);
}

TEST(PrimalDual, CapacityPriceLimitsRate) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 10.0);
  h.set_demand(1, 0, 10.0);
  const std::vector<double> cap(g.edge_count(), 6.0);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 40000;
  opt.alpha = 0.005;
  opt.eta = 0.005;
  opt.kappa = 0.005;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  // Capacity c/delta = 6 shared across both directions: the price lambda
  // must throttle the total rate near 6, far below the demand of 20.
  EXPECT_GT(res.throughput, 4.5);
  EXPECT_LT(res.throughput, 6.5);
}

TEST(PrimalDual, ProportionalFairnessSharesBottleneck) {
  // Line 0-1-2, both edges capacity 8. Symmetric demands 0<->1 and 0<->2
  // both cross edge (0,1): total throughput is 8 for ANY split a+b = 4,
  // so the throughput objective is indifferent (and in general starves
  // one pair); proportional fairness (equal demands) picks a == b == 2.
  const graph::Graph g = graph::topology::make_line(3);
  fluid::PaymentGraph h(3);
  h.set_demand(0, 1, 10);
  h.set_demand(1, 0, 10);
  h.set_demand(0, 2, 10);
  h.set_demand(2, 0, 10);
  const std::vector<double> cap(g.edge_count(), 8.0);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.objective = Objective::kProportionalFairness;
  opt.iterations = 60000;
  opt.alpha = 0.002;
  opt.eta = 0.002;
  opt.kappa = 0.002;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  double near_rate = 0;  // 0 <-> 1
  double far_rate = 0;   // 0 <-> 2
  for (std::size_t i = 0; i < paths.path_count(); ++i) {
    if (res.path_rate[i] <= 1e-9) continue;
    const auto [src, dst] = paths.pair_of(i);
    if ((src == 0 && dst == 1) || (src == 1 && dst == 0)) {
      near_rate += res.path_rate[i];
    } else {
      far_rate += res.path_rate[i];
    }
  }
  // Equal demands, equal utilities => both pair-sums approach 4 (a=b=2
  // per direction). Tolerate slow convergence.
  EXPECT_NEAR(near_rate, 4.0, 1.0);
  EXPECT_NEAR(far_rate, 4.0, 1.0);
  EXPECT_GT(far_rate, 1.5) << "fair objective must not starve the far pair";
}

TEST(PrimalDual, IdlePriceDecayRecoversFromOvershoot) {
  // Deliberately large steps overshoot and crash the rates to zero; with
  // eq. 24 alone the prices freeze there (imbalance == 0). The idle
  // decay lets the dynamics recover a positive operating point.
  graph::Graph g(2);
  g.add_edge(0, 1);
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 0, 2.0);
  const std::vector<double> cap(g.edge_count(),
                                std::numeric_limits<double>::infinity());
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.alpha = 1.5;  // way too big: guaranteed overshoot
  opt.kappa = 1.5;
  opt.iterations = 20000;
  opt.idle_price_decay = 0.01;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_GT(res.throughput, 0.5);
}

TEST(PrimalDual, MismatchedCapacityVectorThrows) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  EXPECT_THROW(
      (void)primal_dual_route(g, std::vector<double>{1.0}, h, paths),
      std::invalid_argument);
}

TEST(PrimalDual, HistorySampling) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 2);
  PrimalDualOptions opt;
  opt.iterations = 1000;
  opt.history_stride = 100;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_EQ(res.history.size(), 10u);
  PrimalDualOptions no_hist = opt;
  no_hist.history_stride = 0;
  EXPECT_TRUE(primal_dual_route(g, cap, h, paths, no_hist).history.empty());
}

}  // namespace
}  // namespace spider::routing
