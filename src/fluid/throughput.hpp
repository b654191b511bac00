#pragma once
// Fluid-model throughput optimization (paper §5.2).
//
// Three LPs from the paper, all built on spider::lp :
//  * eqs. (1)-(5):   max throughput, perfect balance (no rebalancing);
//  * eqs. (6)-(11):  max throughput - gamma * (on-chain rebalancing rate);
//  * eqs. (12)-(18): max throughput with total rebalancing rate <= B,
//                    whose value t(B) is non-decreasing and concave.
//
// Two formulations are provided:
//  * the paper's path formulation over an explicit path set (exact for the
//    given paths; this is also what the Spider (LP) scheme uses with K=4
//    edge-disjoint shortest paths), and
//  * an arc (multicommodity-flow) formulation that optimizes over *all*
//    routes without path enumeration. The arc formulation additionally
//    admits cyclic flows, i.e. off-chain cyclic rebalancing a la Revive
//    [17]; with unlimited capacity its optimum still equals nu(C*)
//    (the cut argument in Proposition 1 only uses edge balance).
// A path set is a graph::PathTable; path rates are indexed by its
// positions, so no path is copied out of the set.

#include <limits>
#include <span>
#include <vector>

#include "fluid/payment_graph.hpp"
#include "graph/graph.hpp"
#include "graph/path_table.hpp"

namespace spider::fluid {

using graph::ArcId;
using graph::EdgeId;
using graph::Graph;

/// Paths available to each (src, dst) demand pair; a demand pair the
/// table does not cover gets rate 0.
using PathSet = graph::PathTable;

/// Builds the paper's default path set: up to `k` edge-disjoint shortest
/// paths per demand pair (§6.1 uses k = 4). The table records k, so a
/// graph::PathCache at the same k accepts it as a seed.
[[nodiscard]] PathSet edge_disjoint_path_set(const Graph& g,
                                             const PaymentGraph& demands,
                                             std::size_t k);

/// Up to `k` loopless shortest paths per demand pair (Yen). k() is 0, so
/// no cache takes the table as a seed.
[[nodiscard]] PathSet k_shortest_path_set(const Graph& g,
                                          const PaymentGraph& demands,
                                          std::size_t k);

/// Every trail between each demand pair, up to `max_paths_per_pair`
/// (enumeration is exponential -- only for small analysis graphs). k()
/// is 0, as for the Yen set.
[[nodiscard]] PathSet all_trails_path_set(const Graph& g,
                                          const PaymentGraph& demands,
                                          std::size_t max_paths_per_pair = 1000);

struct FluidOptions {
  /// Average transaction confirmation latency Delta; channel e supports
  /// total rate c_e / delta (paper eq. 3).
  double delta = 1.0;
  /// Weight of on-chain rebalancing cost. +infinity disables rebalancing
  /// entirely (eqs. 1-5); finite values give eqs. 6-11.
  double gamma = std::numeric_limits<double>::infinity();
  /// If >= 0, additionally bound the total rebalancing rate by B
  /// (eqs. 12-18). Combine with gamma = 0 for the pure t(B) curve.
  double rebalancing_budget = -1;
};

struct FluidSolution {
  bool optimal = false;
  /// sum of x_p over all paths.
  double throughput = 0;
  /// sum of b_(u,v) over all arcs (0 when rebalancing is disabled).
  double rebalancing_rate = 0;
  /// throughput - gamma * rebalancing_rate (== throughput when disabled).
  double objective = 0;
  /// Path rate x_p per path-set position: path_rate[i] is the rate of
  /// paths.paths()[i], 0 for a path whose pair is not a demand (path
  /// formulation only; empty for the arc form and when not optimal).
  std::vector<double> path_rate;
  /// Per-arc rebalancing rates b, indexed by ArcId (empty when disabled).
  std::vector<double> arc_rebalancing;
  /// Delivered rate per demand pair, same order as demands.demands().
  std::vector<double> delivered;
};

/// Solves the path-formulation LP. `edge_capacity[e]` may be +infinity to
/// drop that capacity constraint (Proposition 1 setting).
[[nodiscard]] FluidSolution solve_path_lp(const Graph& g,
                                          std::span<const double> edge_capacity,
                                          const PaymentGraph& demands,
                                          const PathSet& paths,
                                          const FluidOptions& options = {});

/// Solves the arc-formulation LP (all routes, cycles admitted).
[[nodiscard]] FluidSolution solve_arc_lp(const Graph& g,
                                         std::span<const double> edge_capacity,
                                         const PaymentGraph& demands,
                                         const FluidOptions& options = {});

/// Convenience: t(B) for each budget in `budgets` (arc formulation,
/// gamma = 0). Non-decreasing and concave in B by the paper's argument.
[[nodiscard]] std::vector<double> throughput_vs_rebalancing(
    const Graph& g, std::span<const double> edge_capacity,
    const PaymentGraph& demands, std::span<const double> budgets,
    double delta = 1.0);

}  // namespace spider::fluid
