#include "schemes/schemes.hpp"

#include <gtest/gtest.h>

#include "fluid/throughput.hpp"
#include "graph/topology.hpp"
#include "workload/workload.hpp"

namespace spider::schemes {
namespace {

using core::Amount;
using core::ChannelNetwork;
using core::from_units;
using core::PaymentRequest;

PaymentRequest request(core::NodeId src, core::NodeId dst, double units) {
  PaymentRequest req;
  req.src = src;
  req.dst = dst;
  req.amount = from_units(units);
  return req;
}

std::vector<Amount> uniform_caps(const graph::Graph& g, double units) {
  return std::vector<Amount>(g.edge_count(), from_units(units));
}

void check_choices_valid(const graph::Graph& g, const ChannelNetwork& net,
                         const std::vector<RouteChoice>& choices,
                         core::NodeId src, core::NodeId dst) {
  for (const RouteChoice& c : choices) {
    EXPECT_TRUE(c.path.valid(g));
    EXPECT_EQ(c.path.source, src);
    EXPECT_EQ(c.path.destination(g), dst);
    EXPECT_GT(c.amount, 0);
    EXPECT_LE(c.amount, net.path_available(c.path));
  }
}

TEST(ShortestPathScheme, RoutesAlongShortestPath) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const auto caps = uniform_caps(g, 100);
  ChannelNetwork net(g, caps);
  ShortestPathScheme s;
  s.prepare(g, caps, fluid::PaymentGraph(5), 0.5);
  const auto choices = s.route(request(0, 3, 20), from_units(20), net, 0.0);
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].path.length(), 2u);  // 0-1-3
  EXPECT_EQ(choices[0].amount, from_units(20));
  check_choices_valid(g, net, choices, 0, 3);
}

TEST(ShortestPathScheme, ClampsToAvailable) {
  const graph::Graph g = graph::topology::make_line(2);
  const auto caps = uniform_caps(g, 100);  // 50 each side
  ChannelNetwork net(g, caps);
  ShortestPathScheme s;
  s.prepare(g, caps, fluid::PaymentGraph(2), 0.5);
  const auto choices = s.route(request(0, 1, 80), from_units(80), net, 0.0);
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].amount, from_units(50));
}

TEST(MaxFlowScheme, SucceedsAcrossMultiplePaths) {
  const graph::Graph g = graph::topology::make_ring(4);
  ChannelNetwork net(g, uniform_caps(g, 100));  // 50 per direction
  MaxFlowScheme s;
  // 80 > any single path (50) but <= the 100 max-flow.
  const auto choices = s.route(request(0, 2, 80), from_units(80), net, 0.0);
  ASSERT_GE(choices.size(), 2u);
  Amount total = 0;
  for (const RouteChoice& c : choices) total += c.amount;
  EXPECT_EQ(total, from_units(80));
  check_choices_valid(g, net, choices, 0, 2);
}

TEST(MaxFlowScheme, FailsWhenMaxFlowShort) {
  const graph::Graph g = graph::topology::make_ring(4);
  ChannelNetwork net(g, uniform_caps(g, 100));
  MaxFlowScheme s;
  EXPECT_TRUE(s.route(request(0, 2, 150), from_units(150), net, 0.0).empty());
  EXPECT_TRUE(s.atomic());
}

TEST(WaterfillingScheme, SplitsTowardsWidestPaths) {
  // Ring of 4: two disjoint paths 0->2. Drain one side first and check
  // the allocation goes to the fuller path.
  const graph::Graph g = graph::topology::make_ring(4);
  const auto caps = uniform_caps(g, 100);
  ChannelNetwork net(g, caps);
  WaterfillingScheme s(4);
  s.prepare(g, caps, fluid::PaymentGraph(4), 0.5);
  // Drain edge 0 (path 0-1-2) by 30 units.
  auto rl = net.lock_route(
      graph::Path{0, {graph::forward_arc(0)}}, from_units(30),
      core::hash_preimage(1));
  ASSERT_TRUE(rl);
  const auto choices = s.route(request(0, 2, 40), from_units(40), net, 0.0);
  ASSERT_FALSE(choices.empty());
  check_choices_valid(g, net, choices, 0, 2);
  Amount total = 0;
  Amount on_drained = 0;
  for (const RouteChoice& c : choices) {
    total += c.amount;
    if (!c.path.arcs.empty() && graph::edge_of(c.path.arcs[0]) == 0) {
      on_drained += c.amount;
    }
  }
  EXPECT_EQ(total, from_units(40));
  // The fuller (undrained) path gets strictly more.
  EXPECT_LT(on_drained, total - on_drained);
}

TEST(WaterfillingScheme, NoPathsMeansNoChoices) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  const std::vector<Amount> caps{from_units(100)};
  ChannelNetwork net(g, caps);
  WaterfillingScheme s(4);
  s.prepare(g, caps, fluid::PaymentGraph(3), 0.5);
  EXPECT_TRUE(s.route(request(0, 2, 10), from_units(10), net, 0.0).empty());
}

TEST(SpiderLpScheme, WeightsFollowLpAndStarvedPairsGetNothing) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const auto caps = uniform_caps(g, 1000);
  ChannelNetwork net(g, caps);
  SpiderLpScheme s(4);
  s.prepare(g, caps, fluid::fig4_payment_graph(), 0.5);
  // Pair (1,3) [paper 2->4] is in the circulation: routed.
  const auto c13 = s.route(request(1, 3, 10), from_units(10), net, 0.0);
  EXPECT_FALSE(c13.empty());
  Amount total = 0;
  for (const RouteChoice& c : c13) total += c.amount;
  EXPECT_EQ(total, from_units(10));
  check_choices_valid(g, net, c13, 1, 3);
  // All-DAG pairs into node 5 get zero LP rate: never attempted (§6.2).
  EXPECT_TRUE(s.route(request(0, 4, 10), from_units(10), net, 0.0).empty());
}

TEST(SpiderLpScheme, SplitsOverPositiveRatePathsInTableOrder) {
  // isp32 under the bench_substrate_micro demand: the LP gives pair 8->4
  // rate on its first and third edge-disjoint paths and none on the
  // second and fourth, so the split must skip a zero-rate path in the
  // middle and let the third path, not the fourth, absorb the residue.
  const graph::Graph g = graph::topology::make_isp32();
  const workload::Trace trace =
      workload::generate_trace(g, workload::isp_workload(200, 50.0, 3));
  const fluid::PaymentGraph h =
      workload::estimate_demand(g.node_count(), trace, 50.0);
  const auto caps = uniform_caps(g, 30);
  const fluid::PathSet paths = fluid::edge_disjoint_path_set(g, h, 4);
  fluid::FluidOptions opt;
  opt.delta = 1.0;
  const fluid::FluidSolution sol = fluid::solve_path_lp(
      g, std::vector<double>(g.edge_count(), 30.0), h, paths, opt);
  ASSERT_TRUE(sol.optimal);
  const std::size_t pair = paths.pair_index(8, 4);
  ASSERT_LT(pair, paths.pair_count());
  const std::size_t begin = paths.offsets()[pair];
  const std::size_t end = paths.offsets()[pair + 1];
  std::vector<graph::Path> positive;  // positive-rate paths, table order
  double total = 0;
  for (std::size_t pos = begin; pos < end; ++pos) {
    if (sol.path_rate[pos] > 1e-9) {
      positive.push_back(paths.paths()[pos]);
      total += sol.path_rate[pos];
    }
  }
  // Preconditions: >= 2 positive paths, each a visible share of the pair,
  // and a zero-rate path after the last positive one.
  ASSERT_GE(positive.size(), 2u);
  for (std::size_t pos = begin; pos < end; ++pos) {
    const double r = sol.path_rate[pos];
    ASSERT_TRUE(r <= 1e-9 || r > 0.01 * total) << "dust rate " << r;
  }
  ASSERT_LE(sol.path_rate[end - 1], 1e-9);

  SpiderLpScheme s(4);
  s.prepare(g, caps, h, 1.0);
  ChannelNetwork net(g, caps);
  const auto choices = s.route(request(8, 4, 10), from_units(10), net, 0.0);
  ASSERT_EQ(choices.size(), positive.size());
  Amount sum = 0;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    EXPECT_EQ(choices[i].path, positive[i]) << "choice " << i;
    sum += choices[i].amount;
  }
  EXPECT_EQ(sum, from_units(10));
  check_choices_valid(g, net, choices, 8, 4);
}

TEST(SpiderLpScheme, PrimalDualSolverProducesWorkingWeights) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const auto caps = uniform_caps(g, 1000);
  ChannelNetwork net(g, caps);
  SpiderLpScheme s(4, SpiderLpScheme::Solver::kPrimalDual, 6000);
  EXPECT_EQ(s.name(), "spider-primal-dual");
  s.prepare(g, caps, fluid::fig4_payment_graph(), 0.5);
  const auto choices = s.route(request(1, 3, 10), from_units(10), net, 0.0);
  EXPECT_FALSE(choices.empty());
  check_choices_valid(g, net, choices, 1, 3);
}

TEST(SilentWhispers, PicksHighDegreeLandmarksAndRoutesThrough) {
  const graph::Graph g = graph::topology::make_isp32();
  const auto caps = uniform_caps(g, 100);
  ChannelNetwork net(g, caps);
  SilentWhispersScheme s(3);
  s.prepare(g, caps, fluid::PaymentGraph(32), 0.5);
  ASSERT_EQ(s.landmarks().size(), 3u);
  for (const graph::NodeId lm : s.landmarks()) {
    EXPECT_LT(lm, 8u);  // cores are the high-degree tier
  }
  const auto choices = s.route(request(10, 25, 30), from_units(30), net, 0.0);
  ASSERT_FALSE(choices.empty());
  Amount total = 0;
  for (const RouteChoice& c : choices) total += c.amount;
  EXPECT_EQ(total, from_units(30));
  check_choices_valid(g, net, choices, 10, 25);
}

TEST(SilentWhispers, AtomicFailureWhenLandmarkPathsDry) {
  const graph::Graph g = graph::topology::make_star(5);
  const auto caps = uniform_caps(g, 100);  // 50 outbound per leaf
  ChannelNetwork net(g, caps);
  SilentWhispersScheme s(2);
  s.prepare(g, caps, fluid::PaymentGraph(5), 0.5);
  // Any 1->2 route crosses the hub; 80 > 50 bottleneck => atomic fail.
  EXPECT_TRUE(s.route(request(1, 2, 80), from_units(80), net, 0.0).empty());
}

TEST(SpeedyMurmurs, TreeDistanceIsAMetricOnTrees) {
  const graph::Graph g = graph::topology::make_isp32();
  SpeedyMurmursScheme s(3, 7);
  s.prepare(g, uniform_caps(g, 100), fluid::PaymentGraph(32), 0.5);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(s.tree_distance(t, 5, 5), 0u);
    EXPECT_EQ(s.tree_distance(t, 3, 9), s.tree_distance(t, 9, 3));
    // Triangle inequality spot check.
    EXPECT_LE(s.tree_distance(t, 3, 9),
              s.tree_distance(t, 3, 20) + s.tree_distance(t, 20, 9));
  }
}

TEST(SpeedyMurmurs, RoutesAndRespectsBalances) {
  const graph::Graph g = graph::topology::make_isp32();
  const auto caps = uniform_caps(g, 100);
  ChannelNetwork net(g, caps);
  SpeedyMurmursScheme s(3, 7);
  s.prepare(g, caps, fluid::PaymentGraph(32), 0.5);
  const auto choices = s.route(request(12, 28, 30), from_units(30), net, 0.0);
  ASSERT_EQ(choices.size(), 3u);  // one share per tree
  Amount total = 0;
  for (const RouteChoice& c : choices) total += c.amount;
  EXPECT_EQ(total, from_units(30));
  check_choices_valid(g, net, choices, 12, 28);
}

TEST(SpeedyMurmurs, FailsWhenSharesDontFit) {
  const graph::Graph g = graph::topology::make_line(2);
  const auto caps = uniform_caps(g, 100);  // 50 per direction
  ChannelNetwork net(g, caps);
  SpeedyMurmursScheme s(1, 3);
  s.prepare(g, caps, fluid::PaymentGraph(2), 0.5);
  EXPECT_TRUE(s.route(request(0, 1, 80), from_units(80), net, 0.0).empty());
  EXPECT_FALSE(s.route(request(0, 1, 40), from_units(40), net, 0.0).empty());
}

TEST(StaleWaterfilling, UsesSnapshotUntilRefresh) {
  const graph::Graph g = graph::topology::make_ring(4);
  const auto caps = uniform_caps(g, 100);
  ChannelNetwork net(g, caps);
  StaleWaterfillingScheme s(4, /*refresh_interval=*/10.0);
  s.prepare(g, caps, fluid::PaymentGraph(4), 0.5);
  // Probe at t=0: both 0->2 paths report 50.
  const auto first = s.route(request(0, 2, 10), from_units(10), net, 0.0);
  ASSERT_FALSE(first.empty());
  // Drain edge 0 heavily; a live scheme would now avoid it.
  auto rl = net.lock_route(graph::Path{0, {graph::forward_arc(0)}},
                           from_units(45), core::hash_preimage(1));
  ASSERT_TRUE(rl);
  // At t=1 (inside the interval) the scheme still believes the old
  // snapshot and splits over both paths; clamping keeps it feasible.
  const auto stale = s.route(request(0, 2, 40), from_units(40), net, 1.0);
  check_choices_valid(g, net, stale, 0, 2);
  // After the refresh interval it re-probes and shifts to the full path.
  const auto fresh = s.route(request(0, 2, 40), from_units(40), net, 11.0);
  Amount on_drained = 0, total = 0;
  for (const RouteChoice& c : fresh) {
    total += c.amount;
    if (!c.path.arcs.empty() && graph::edge_of(c.path.arcs[0]) == 0) {
      on_drained += c.amount;
    }
  }
  EXPECT_GT(total, 0);
  EXPECT_LT(on_drained, total - on_drained);
}

TEST(Factory, CreatesEverySchemeAndRejectsUnknown) {
  for (const std::string& name : all_scheme_names()) {
    const auto s = make_scheme(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_EQ(make_scheme("spider-primal-dual")->name(), "spider-primal-dual");
  EXPECT_EQ(make_scheme("spider-waterfilling-stale")->name(),
            "spider-waterfilling-stale");
  EXPECT_THROW((void)make_scheme("nope"), std::invalid_argument);
  // Packet-backed schemes have no flow-simulator fallback.
  EXPECT_THROW((void)make_scheme("spider-cc"), std::invalid_argument);
  EXPECT_THROW((void)make_scheme("packet-widest"), std::invalid_argument);
}

}  // namespace
}  // namespace spider::schemes
