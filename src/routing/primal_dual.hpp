#pragma once
// Decentralized primal-dual routing/rate-control algorithm (paper §5.3,
// eqs. 21-24).
//
// Each payment channel carries two prices per direction: lambda for the
// capacity constraint (eq. 23) and mu for the imbalance constraint
// (eq. 24). The per-arc price is
//     z_(u,v) = lambda_(u,v) + lambda_(v,u) + mu_(u,v) - mu_(v,u)
// and a path's price is the sum of its arc prices. Sources perform
// projected gradient steps on their path rates (eq. 21); edges adapt
// their on-chain rebalancing rate b (eq. 22) when gamma is finite.
// Since both directions of an edge share one capacity constraint,
// lambda_(u,v) == lambda_(v,u) throughout; we store it once per edge.
//
// For small step sizes the iterates converge to the optimum of the fluid
// LP (eqs. 6-11); the tests verify this against spider::lp.
// Final rates are reported by path-table position, like
// fluid::FluidSolution::path_rate.

#include <span>
#include <vector>

#include "fluid/payment_graph.hpp"
#include "fluid/throughput.hpp"

namespace spider::routing {

using fluid::PathSet;
using fluid::PaymentGraph;
using graph::ArcId;
using graph::EdgeId;
using graph::Graph;

/// Objective shaping for the primal step (paper §5.3 closing remark and
/// §6.2: associating a utility with each sender-receiver pair fixes the
/// LP's starvation of zero-rate commodities).
enum class Objective {
  /// Maximize total throughput (eq. 6): U(x) = x. Can starve pairs.
  kThroughput,
  /// Proportional fairness [16]: U(x) = d_ij * log(sum_p x_p). Every pair
  /// with a path receives a strictly positive rate at the optimum.
  kProportionalFairness,
};

struct PrimalDualOptions {
  double delta = 1.0;   // confirmation latency (capacity = c/delta)
  Objective objective = Objective::kThroughput;
  double gamma = std::numeric_limits<double>::infinity();  // rebalance cost
  double alpha = 0.01;  // source rate step (eq. 21)
  double beta = 0.01;   // rebalancing step (eq. 22)
  double eta = 0.01;    // capacity price step (eq. 23)
  double kappa = 0.01;  // imbalance price step (eq. 24)
  std::size_t iterations = 20000;
  /// Record the throughput trajectory every `history_stride` iterations
  /// (0 disables recording).
  std::size_t history_stride = 100;
  /// Optional stabilizer (0 = paper-faithful eq. 24): multiplicative
  /// decay applied to an arc's imbalance price while both directions of
  /// its channel carry zero rate. Eq. 24 freezes mu when all rates hit
  /// zero (imbalance is 0), so a large overshoot can deadlock the
  /// dynamics at x == 0; decaying idle prices lets them recover.
  double idle_price_decay = 0;
};

struct PrimalDualResult {
  /// Final total sending rate sum_p x_p.
  double throughput = 0;
  /// Final total rebalancing rate sum b (0 when gamma is infinite).
  double rebalancing_rate = 0;
  /// throughput - gamma * rebalancing (== throughput without rebalancing).
  double objective = 0;
  /// Final rate of paths.paths()[i] (0 when its pair is not a demand).
  std::vector<double> path_rate;
  /// Capacity prices per edge and imbalance prices per arc at the end.
  std::vector<double> lambda;
  std::vector<double> mu;
  /// Throughput trajectory sampled every `history_stride` iterations.
  std::vector<double> history;
};

/// Runs the primal-dual dynamics from the all-zero state.
[[nodiscard]] PrimalDualResult primal_dual_route(
    const Graph& g, std::span<const double> edge_capacity,
    const PaymentGraph& demands, const PathSet& paths,
    const PrimalDualOptions& options = {});

/// Euclidean projection of `x` onto the simplex-like set
/// { x >= 0, sum x <= cap } (the set X_ij of eq. 21).
void project_onto_capped_simplex(std::vector<double>& x, double cap);

}  // namespace spider::routing
