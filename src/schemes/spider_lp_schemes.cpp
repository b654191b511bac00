// SpiderLpScheme and SpiderPrimalDualScheme: weight paths by the fluid
// optimum (centralized LP / decentralized primal-dual).

#include <algorithm>
#include <cmath>

#include "fluid/throughput.hpp"
#include "routing/primal_dual.hpp"
#include "schemes/schemes.hpp"

namespace spider::schemes {

namespace {

/// Largest demand pairs the fluid optimization is solved over. Small
/// instances go to the exact simplex; larger ones to the primal-dual
/// solver (see prepare()). Pairs beyond the cap get zero weight, which
/// only strengthens the paper's reported Spider (LP) drawback of starved
/// flows.
constexpr std::size_t kMaxLpPairs = 2000;

fluid::PaymentGraph top_pairs(const fluid::PaymentGraph& demand,
                              std::size_t max_pairs) {
  std::vector<fluid::Demand> ds = demand.demands();
  if (ds.size() <= max_pairs) return demand;
  std::sort(ds.begin(), ds.end(),
            [](const fluid::Demand& a, const fluid::Demand& b) {
              if (a.rate != b.rate) return a.rate > b.rate;
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  fluid::PaymentGraph top(demand.node_count());
  for (std::size_t i = 0; i < max_pairs; ++i) {
    top.set_demand(ds[i].src, ds[i].dst, ds[i].rate);
  }
  return top;
}

/// The fluid instance both Spider (LP) and Spider-PrimalDual solve: the
/// top demand pairs, their edge-disjoint path set, and the per-edge
/// capacities in units. Paths and capacities stay empty when there is
/// no demand.
struct FluidInstance {
  fluid::PaymentGraph demand;
  fluid::PathSet paths;
  std::vector<double> caps;
};

FluidInstance fluid_instance(const graph::Graph& g,
                             const std::vector<core::Amount>& edge_capacity,
                             const fluid::PaymentGraph& demand_estimate,
                             std::size_t k) {
  FluidInstance in{top_pairs(demand_estimate, kMaxLpPairs), {}, {}};
  if (in.demand.demand_count() == 0) return in;
  in.paths = fluid::edge_disjoint_path_set(g, in.demand, k);
  in.caps.resize(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    in.caps[e] = core::to_units(edge_capacity[e]);
  }
  return in;
}

using WeightTable = std::map<std::pair<graph::NodeId, graph::NodeId>,
                             std::vector<std::pair<graph::Path, double>>>;

/// Normalizes per-pair path rates into weights summing to 1 (pairs with
/// zero total rate are omitted and therefore never attempted).
WeightTable weights_from_flows(const std::vector<fluid::PathFlow>& flows) {
  WeightTable table;
  std::map<std::pair<graph::NodeId, graph::NodeId>, double> totals;
  for (const fluid::PathFlow& f : flows) {
    totals[{f.src, f.dst}] += f.rate;
  }
  for (const fluid::PathFlow& f : flows) {
    const double total = totals[{f.src, f.dst}];
    if (total <= 1e-9) continue;
    table[{f.src, f.dst}].emplace_back(f.path, f.rate / total);
  }
  return table;
}

/// Runs the §5.3 primal-dual dynamics and normalizes the resulting path
/// rates into weights. The fluid LP is scale-invariant (scaling demands
/// and capacities by s scales the optimal rates by s and leaves the
/// weights unchanged), so we normalize the instance to O(1) rates first:
/// the fixed step sizes are then well-matched to the gradient magnitudes
/// and the dynamics neither overshoot nor deadlock at zero.
WeightTable primal_dual_weights(const graph::Graph& g,
                                const FluidInstance& in, double delta,
                                std::size_t iterations) {
  double max_rate = 0;
  for (const fluid::Demand& d : in.demand.demands()) {
    max_rate = std::max(max_rate, d.rate);
  }
  if (max_rate <= 0) return {};
  fluid::PaymentGraph scaled(in.demand.node_count());
  for (const fluid::Demand& d : in.demand.demands()) {
    scaled.set_demand(d.src, d.dst, d.rate / max_rate);
  }
  std::vector<double> scaled_caps(in.caps.size());
  for (std::size_t e = 0; e < in.caps.size(); ++e) {
    scaled_caps[e] = in.caps[e] / max_rate;
  }
  routing::PrimalDualOptions pd;
  pd.delta = delta;
  pd.iterations = iterations;
  pd.history_stride = 0;
  pd.alpha = 0.002;
  pd.eta = 0.002;
  pd.kappa = 0.002;
  pd.idle_price_decay = 0.002;  // escape the mu-freeze deadlock
  const routing::PrimalDualResult res =
      routing::primal_dual_route(g, scaled_caps, scaled, in.paths, pd);
  return weights_from_flows(res.flows);
}

std::vector<RouteChoice> route_by_weights(const WeightTable& weights,
                                          const core::PaymentRequest& req,
                                          core::Amount remaining,
                                          const core::ChannelNetwork& net) {
  const auto it = weights.find({req.src, req.dst});
  if (it == weights.end()) return {};  // LP starved this pair: never sent
  std::vector<RouteChoice> choices;
  core::Amount assigned = 0;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    const auto& [path, w] = it->second[i];
    core::Amount amt =
        i + 1 == it->second.size()
            ? remaining - assigned  // last path absorbs rounding residue
            : static_cast<core::Amount>(
                  std::llround(static_cast<double>(remaining) * w));
    amt = std::min({amt, remaining - assigned, net.path_available(path)});
    if (amt > 0) {
      choices.push_back(RouteChoice{path, amt});
      assigned += amt;
    }
  }
  return choices;
}

}  // namespace

void SpiderLpScheme::prepare(const graph::Graph& g,
                             const std::vector<core::Amount>& edge_capacity,
                             const fluid::PaymentGraph& demand_estimate,
                             double delta) {
  weights_.clear();
  const FluidInstance in =
      fluid_instance(g, edge_capacity, demand_estimate, k_);
  if (in.demand.demand_count() == 0) return;
  // The dense simplex is exact but O(rows * cols) per pivot; above a size
  // threshold fall back to the decentralized primal-dual solver of §5.3
  // (the paper's own practical answer to LP scaling, §5.3.1). Both yield
  // per-path rates we normalize into weights.
  std::size_t nvars = 0;
  for (const auto& [pair, ps] : in.paths) nvars += ps.size();
  const std::size_t rows =
      in.demand.demand_count() + 3 * g.edge_count();  // demand+cap+balance
  const bool too_big = rows * (nvars + rows) > 4'000'000;
  if (!too_big) {
    fluid::FluidOptions opt;
    opt.delta = delta;
    const fluid::FluidSolution sol =
        fluid::solve_path_lp(g, in.caps, in.demand, in.paths, opt);
    if (sol.optimal) weights_ = weights_from_flows(sol.flows);
    return;
  }
  weights_ = primal_dual_weights(g, in, delta, 8000);
}

std::vector<RouteChoice> SpiderLpScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  return route_by_weights(weights_, req, remaining, net);
}

void SpiderPrimalDualScheme::prepare(
    const graph::Graph& g, const std::vector<core::Amount>& edge_capacity,
    const fluid::PaymentGraph& demand_estimate, double delta) {
  weights_.clear();
  const FluidInstance in =
      fluid_instance(g, edge_capacity, demand_estimate, k_);
  if (in.demand.demand_count() == 0) return;
  weights_ = primal_dual_weights(g, in, delta, iterations_);
}

std::vector<RouteChoice> SpiderPrimalDualScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  return route_by_weights(weights_, req, remaining, net);
}

}  // namespace spider::schemes
