#include "routing/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace spider::routing {

void project_onto_capped_simplex(std::vector<double>& x, double cap) {
  for (double& v : x) v = std::max(v, 0.0);
  double total = std::accumulate(x.begin(), x.end(), 0.0);
  if (total <= cap) return;
  // Project onto { x >= 0, sum x == cap }: subtract a common tau from the
  // active coordinates. Sort once, then find the breakpoint.
  std::vector<double> sorted = x;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double prefix = 0;
  double tau = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    prefix += sorted[i];
    const double candidate =
        (prefix - cap) / static_cast<double>(i + 1);
    if (i + 1 == sorted.size() || sorted[i + 1] <= candidate) {
      tau = candidate;
      break;
    }
  }
  for (double& v : x) v = std::max(v - tau, 0.0);
}

PrimalDualResult primal_dual_route(const Graph& g,
                                   std::span<const double> edge_capacity,
                                   const PaymentGraph& demands,
                                   const PathSet& paths,
                                   const PrimalDualOptions& opt) {
  if (edge_capacity.size() != g.edge_count()) {
    throw std::invalid_argument("primal_dual: capacity size != edge count");
  }
  const bool rebalancing = std::isfinite(opt.gamma);
  const std::vector<fluid::Demand> ds = demands.demands();

  // Flatten (pair, path) variables; remember each pair's variable block.
  struct Block {
    std::size_t first;
    std::size_t count;
    double demand;
  };
  std::vector<Block> blocks(ds.size());
  std::vector<const graph::Path*> var_path;
  for (std::size_t k = 0; k < ds.size(); ++k) {
    blocks[k].first = var_path.size();
    blocks[k].demand = ds[k].rate;
    for (const graph::Path& p : paths.find(ds[k].src, ds[k].dst)) {
      var_path.push_back(&p);
    }
    blocks[k].count = var_path.size() - blocks[k].first;
  }
  const std::size_t nx = var_path.size();

  std::vector<double> x(nx, 0.0);
  std::vector<double> lambda(g.edge_count(), 0.0);
  std::vector<double> mu(g.arc_count(), 0.0);
  std::vector<double> b(rebalancing ? g.arc_count() : 0, 0.0);
  std::vector<double> arc_rate(g.arc_count(), 0.0);
  std::vector<double> scratch;

  PrimalDualResult result;
  for (std::size_t iter = 0; iter < opt.iterations; ++iter) {
    // --- Primal step: per-path gradient + projection (eq. 21). ---
    for (std::size_t k = 0; k < ds.size(); ++k) {
      const Block& blk = blocks[k];
      if (blk.count == 0) continue;
      // Marginal utility of this pair's total rate: 1 for throughput;
      // d / sum(x) for proportional fairness (U = d * log sum x), floored
      // to keep the gradient finite near zero.
      double marginal_utility = 1.0;
      if (opt.objective == Objective::kProportionalFairness) {
        double pair_rate = 0;
        for (std::size_t j = 0; j < blk.count; ++j) {
          pair_rate += x[blk.first + j];
        }
        marginal_utility =
            blk.demand / std::max(pair_rate, 1e-3 * blk.demand);
      }
      scratch.assign(blk.count, 0.0);
      for (std::size_t j = 0; j < blk.count; ++j) {
        const std::size_t v = blk.first + j;
        double zp = 0;
        for (const ArcId a : var_path[v]->arcs) {
          const EdgeId e = graph::edge_of(a);
          zp += 2 * lambda[e] + mu[a] - mu[graph::reverse(a)];
        }
        scratch[j] = x[v] + opt.alpha * (marginal_utility - zp);
      }
      project_onto_capped_simplex(scratch, blk.demand);
      for (std::size_t j = 0; j < blk.count; ++j) x[blk.first + j] = scratch[j];
    }
    // Rebalancing rates (eq. 22).
    if (rebalancing) {
      for (ArcId a = 0; a < g.arc_count(); ++a) {
        b[a] = std::max(0.0, b[a] + opt.beta * (mu[a] - opt.gamma));
      }
    }
    // --- Dual step: recompute arc rates, update prices (eqs. 23-24). ---
    std::fill(arc_rate.begin(), arc_rate.end(), 0.0);
    for (std::size_t v = 0; v < nx; ++v) {
      if (x[v] == 0) continue;
      for (const ArcId a : var_path[v]->arcs) arc_rate[a] += x[v];
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const double load = arc_rate[graph::forward_arc(e)] +
                          arc_rate[graph::backward_arc(e)];
      const double cap = std::isfinite(edge_capacity[e])
                             ? edge_capacity[e] / opt.delta
                             : std::numeric_limits<double>::infinity();
      if (std::isfinite(cap)) {
        lambda[e] = std::max(0.0, lambda[e] + opt.eta * (load - cap));
      }
    }
    for (ArcId a = 0; a < g.arc_count(); ++a) {
      const double imbalance =
          arc_rate[a] - arc_rate[graph::reverse(a)] - (rebalancing ? b[a] : 0.0);
      mu[a] = std::max(0.0, mu[a] + opt.kappa * imbalance);
      if (opt.idle_price_decay > 0 && arc_rate[a] == 0 &&
          arc_rate[graph::reverse(a)] == 0) {
        mu[a] *= 1.0 - opt.idle_price_decay;
      }
    }
    if (opt.history_stride != 0 && iter % opt.history_stride == 0) {
      result.history.push_back(std::accumulate(x.begin(), x.end(), 0.0));
    }
  }

  result.throughput = std::accumulate(x.begin(), x.end(), 0.0);
  result.rebalancing_rate = std::accumulate(b.begin(), b.end(), 0.0);
  result.objective = rebalancing
                         ? result.throughput - opt.gamma * result.rebalancing_rate
                         : result.throughput;
  result.lambda = std::move(lambda);
  result.mu = std::move(mu);
  result.path_rate.assign(paths.path_count(), 0.0);
  for (std::size_t v = 0; v < nx; ++v) {
    result.path_rate[static_cast<std::size_t>(var_path[v] -
                                              paths.paths().data())] = x[v];
  }
  return result;
}

}  // namespace spider::routing
