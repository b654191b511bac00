// SpiderLpScheme: weight paths by the fluid optimum (centralized LP or
// decentralized primal-dual, per the scheme name).

#include <algorithm>
#include <cmath>
#include <span>

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

/// Primal-dual iterations when "spider-lp" falls back from the simplex.
constexpr std::size_t kLpFallbackIterations = 8000;

/// The fluid instance both SpiderLpScheme solvers work on: the
/// kMaxLpPairs largest demand pairs, their edge-disjoint path set, and
/// the per-edge capacities in units. Paths stay empty when there is no
/// demand.
struct FluidInstance {
  fluid::PaymentGraph demand;
  fluid::PathSet paths;
  std::vector<double> caps;
};

FluidInstance fluid_instance(const graph::Graph& g,
                             const std::vector<core::Amount>& edge_capacity,
                             const fluid::PaymentGraph& demand_estimate,
                             std::size_t k) {
  FluidInstance in{demand_estimate, {}, {}};
  std::vector<fluid::Demand> ds = demand_estimate.demands();
  if (ds.size() > kMaxLpPairs) {
    std::sort(ds.begin(), ds.end(),
              [](const fluid::Demand& a, const fluid::Demand& b) {
                if (a.rate != b.rate) return a.rate > b.rate;
                return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
              });
    in.demand = fluid::PaymentGraph(demand_estimate.node_count());
    for (std::size_t i = 0; i < kMaxLpPairs; ++i) {
      in.demand.set_demand(ds[i].src, ds[i].dst, ds[i].rate);
    }
  }
  if (in.demand.demand_count() == 0) return in;
  in.paths = fluid::edge_disjoint_path_set(g, in.demand, k);
  in.caps.resize(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    in.caps[e] = core::to_units(edge_capacity[e]);
  }
  return in;
}

/// Normalizes each pair's path rates into weights summing to 1, in
/// table order. A path gets a weight only when its rate is > 1e-9, and
/// the pair's total sums those rates in path order; a pair whose total
/// is <= 1e-9 keeps all-zero weights and is therefore never attempted.
std::vector<double> weights_from_rates(const graph::PathTable& paths,
                                       std::span<const double> rate) {
  std::vector<double> weights(paths.path_count(), 0.0);
  const std::span<const std::uint32_t> offsets = paths.offsets();
  for (std::size_t i = 0; i < paths.pair_count(); ++i) {
    double total = 0;
    for (std::size_t pos = offsets[i]; pos < offsets[i + 1]; ++pos) {
      if (rate[pos] > 1e-9) total += rate[pos];
    }
    if (total <= 1e-9) continue;
    for (std::size_t pos = offsets[i]; pos < offsets[i + 1]; ++pos) {
      if (rate[pos] > 1e-9) weights[pos] = rate[pos] / total;
    }
  }
  return weights;
}

/// Runs the §5.3 primal-dual dynamics and returns the path rates by
/// table position. The fluid LP is scale-invariant (scaling demands and
/// capacities by s scales the optimal rates by s and leaves the weights
/// unchanged), so we normalize the instance to O(1) rates first: the
/// fixed step sizes are then well-matched to the gradient magnitudes and
/// the dynamics neither overshoot nor deadlock at zero. Needs at least
/// one demand (all demands are > 0).
std::vector<double> primal_dual_rates(const graph::Graph& g,
                                      const FluidInstance& in, double delta,
                                      std::size_t iterations) {
  double max_rate = 0;
  for (const fluid::Demand& d : in.demand.demands()) {
    max_rate = std::max(max_rate, d.rate);
  }
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
  return routing::primal_dual_route(g, scaled_caps, scaled, in.paths, pd)
      .path_rate;
}

}  // namespace

void SpiderLpScheme::prepare(const graph::Graph& g,
                             const std::vector<core::Amount>& edge_capacity,
                             const fluid::PaymentGraph& demand_estimate,
                             double delta) {
  FluidInstance in = fluid_instance(g, edge_capacity, demand_estimate, k_);
  // All-zero rates starve every pair unless a solver below succeeds.
  std::vector<double> rate(in.paths.path_count(), 0.0);
  // The dense simplex is exact but O(rows * cols) per pivot; above a size
  // threshold "spider-lp" falls back to the decentralized primal-dual
  // solver of §5.3 (the paper's own practical answer to LP scaling,
  // §5.3.1). Both yield per-path rates we normalize into weights.
  const std::size_t rows =
      in.demand.demand_count() + 3 * g.edge_count();  // demand+cap+balance
  const bool too_big = rows * (in.paths.path_count() + rows) > 4'000'000;
  if (in.demand.demand_count() == 0) {
    // No demand: every pair is starved.
  } else if (solver_ == Solver::kPrimalDual || too_big) {
    rate = primal_dual_rates(
        g, in, delta,
        solver_ == Solver::kPrimalDual ? iterations_ : kLpFallbackIterations);
  } else {
    fluid::FluidOptions opt;
    opt.delta = delta;
    fluid::FluidSolution sol =
        fluid::solve_path_lp(g, in.caps, in.demand, in.paths, opt);
    if (sol.optimal) rate = std::move(sol.path_rate);
  }
  weights_ = weights_from_rates(in.paths, rate);
  paths_ = std::move(in.paths);
}

std::vector<RouteChoice> SpiderLpScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  const std::size_t i = paths_.pair_index(req.src, req.dst);
  if (i == paths_.pair_count()) return {};  // not a solved pair
  const std::size_t begin = paths_.offsets()[i];
  std::size_t end = paths_.offsets()[i + 1];
  // The last path with positive weight absorbs the rounding residue.
  while (end > begin && !(weights_[end - 1] > 0)) --end;
  if (end == begin) return {};  // LP starved this pair: never sent
  std::vector<RouteChoice> choices;
  core::Amount assigned = 0;
  for (std::size_t pos = begin; pos < end; ++pos) {
    const double w = weights_[pos];
    if (!(w > 0)) continue;
    const graph::Path& path = paths_.paths()[pos];
    core::Amount amt =
        pos + 1 == end
            ? remaining - assigned
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

}  // namespace spider::schemes
