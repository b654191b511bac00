#include "fluid/throughput.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/path_cache.hpp"
#include "lp/lp.hpp"

namespace spider::fluid {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_capacity(const Graph& g, std::span<const double> edge_capacity) {
  if (edge_capacity.size() != g.edge_count()) {
    throw std::invalid_argument("fluid: edge_capacity size != edge count");
  }
  for (const double c : edge_capacity) {
    if (c < 0 || std::isnan(c)) {
      throw std::invalid_argument("fluid: negative or NaN capacity");
    }
  }
}

// DFS enumeration of all trails (no repeated edges) from s to t.
void enumerate_trails(const Graph& g, NodeId at, NodeId t,
                      std::vector<ArcId>& walk, std::vector<char>& used_edge,
                      std::vector<graph::Path>& out, NodeId s,
                      std::size_t max_paths) {
  if (out.size() >= max_paths) return;
  if (at == t && !walk.empty()) {
    out.push_back(graph::Path{s, walk});
    return;
  }
  for (const ArcId a : g.out_arcs(at)) {
    const EdgeId e = graph::edge_of(a);
    if (used_edge[e]) continue;
    used_edge[e] = 1;
    walk.push_back(a);
    enumerate_trails(g, g.head(a), t, walk, used_edge, out, s, max_paths);
    walk.pop_back();
    used_edge[e] = 0;
  }
}

// Both formulations' rebalancing variables b (nb of them from b_base; nb
// is 0 when rebalancing is off): their -gamma cost and the budget row.
void add_rebalancing(lp::Problem& prob, std::size_t b_base, std::size_t nb,
                     const FluidOptions& options) {
  if (nb == 0) return;
  if (std::isfinite(options.gamma)) {
    for (std::size_t a = 0; a < nb; ++a) {
      prob.set_objective(b_base + a, -options.gamma);
    }
  }
  if (options.rebalancing_budget >= 0) {
    std::vector<lp::Term> terms;
    for (std::size_t a = 0; a < nb; ++a) terms.push_back({b_base + a, 1.0});
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                        options.rebalancing_budget);
  }
}

// Reads b back and sets the objective once `throughput` is summed.
void finish(FluidSolution& out, const lp::Solution& sol, std::size_t b_base,
            std::size_t nb, const FluidOptions& options) {
  if (nb > 0) out.arc_rebalancing.assign(nb, 0.0);
  for (std::size_t a = 0; a < nb; ++a) {
    out.arc_rebalancing[a] = sol.x[b_base + a];
    out.rebalancing_rate += sol.x[b_base + a];
  }
  out.objective = std::isfinite(options.gamma)
                      ? out.throughput - options.gamma * out.rebalancing_rate
                      : out.throughput;
}

// One row of paths per demand pair, in demands() order -- which is
// (src, dst) order, as a PathTable needs. For the cache-backed sets this
// loop is the spider-lp / primal-dual setup cost on big graphs.
template <class RowFn>
PathSet demand_path_set(const PaymentGraph& demands, std::size_t k,
                        RowFn row) {
  std::vector<graph::PathTable::Pair> pairs;
  std::vector<std::vector<graph::Path>> rows;
  for (const Demand& d : demands.demands()) {
    pairs.emplace_back(d.src, d.dst);
    const auto paths = row(d.src, d.dst);
    rows.emplace_back(paths.begin(), paths.end());
  }
  return PathSet(std::move(pairs), std::move(rows), k);
}

}  // namespace

PathSet edge_disjoint_path_set(const Graph& g, const PaymentGraph& demands,
                               std::size_t k) {
  graph::PathCache cache(&g, graph::PathMode::kEdgeDisjoint, k);
  return demand_path_set(demands, k, [&](NodeId s, NodeId t) {
    return cache.paths(s, t);
  });
}

PathSet k_shortest_path_set(const Graph& g, const PaymentGraph& demands,
                            std::size_t k) {
  graph::PathCache cache(&g, graph::PathMode::kKShortest, k);
  return demand_path_set(demands, 0, [&](NodeId s, NodeId t) {
    return cache.paths(s, t);
  });
}

PathSet all_trails_path_set(const Graph& g, const PaymentGraph& demands,
                            std::size_t max_paths_per_pair) {
  return demand_path_set(demands, 0, [&](NodeId src, NodeId dst) {
    std::vector<graph::Path> trails;
    std::vector<ArcId> walk;
    std::vector<char> used(g.edge_count(), 0);
    enumerate_trails(g, src, dst, walk, used, trails, src,
                     max_paths_per_pair);
    return trails;
  });
}

FluidSolution solve_path_lp(const Graph& g,
                            std::span<const double> edge_capacity,
                            const PaymentGraph& demands, const PathSet& paths,
                            const FluidOptions& options) {
  check_capacity(g, edge_capacity);
  const std::vector<Demand> ds = demands.demands();
  const bool rebalancing =
      std::isfinite(options.gamma) || options.rebalancing_budget >= 0;

  // Variable layout: one x per (pair, path) -- demands in order, each
  // pair's paths in table order -- then one b per arc.
  struct PathVar {
    std::size_t demand_index;
    const graph::Path* path;  // into paths.paths()
  };
  std::vector<PathVar> path_vars;
  for (std::size_t k = 0; k < ds.size(); ++k) {
    for (const graph::Path& p : paths.find(ds[k].src, ds[k].dst)) {
      path_vars.push_back({k, &p});
    }
  }
  const std::size_t nx = path_vars.size();
  const std::size_t nb = rebalancing ? g.arc_count() : 0;
  lp::Problem prob(nx + nb);

  for (std::size_t v = 0; v < nx; ++v) prob.set_objective(v, 1.0);

  // Demand constraints (eq. 2/7): per pair, sum of its path rates <= d.
  std::vector<std::vector<lp::Term>> demand_terms(ds.size());
  // Per-arc usage terms for capacity/balance rows.
  std::vector<std::vector<lp::Term>> arc_terms(g.arc_count());
  for (std::size_t v = 0; v < nx; ++v) {
    demand_terms[path_vars[v].demand_index].push_back({v, 1.0});
    for (const ArcId a : path_vars[v].path->arcs) {
      arc_terms[a].push_back({v, 1.0});
    }
  }
  for (std::size_t k = 0; k < ds.size(); ++k) {
    if (!demand_terms[k].empty()) {
      prob.add_constraint(demand_terms[k], lp::Relation::kLessEq, ds[k].rate);
    }
  }
  // Capacity (eq. 3/8): both directions of edge e share c_e / delta.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!std::isfinite(edge_capacity[e])) continue;
    std::vector<lp::Term> terms = arc_terms[graph::forward_arc(e)];
    for (const lp::Term& t : arc_terms[graph::backward_arc(e)]) {
      terms.push_back(t);
    }
    if (!terms.empty() || edge_capacity[e] == 0) {
      prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                          edge_capacity[e] / options.delta);
    }
  }
  // Balance (eq. 4/9): flow(u->v) - flow(v->u) <= b_(u,v), per direction.
  for (ArcId a = 0; a < g.arc_count(); ++a) {
    std::vector<lp::Term> terms = arc_terms[a];
    for (const lp::Term& t : arc_terms[graph::reverse(a)]) {
      terms.push_back({t.var, -1.0});
    }
    if (rebalancing) terms.push_back({nx + a, -1.0});
    if (!terms.empty()) {
      prob.add_constraint(std::move(terms), lp::Relation::kLessEq, 0.0);
    }
  }
  add_rebalancing(prob, nx, nb, options);

  const lp::Solution sol = lp::solve(prob);
  FluidSolution out;
  out.optimal = sol.optimal();
  if (!out.optimal) return out;
  out.delivered.assign(ds.size(), 0.0);
  out.path_rate.assign(paths.path_count(), 0.0);
  for (std::size_t v = 0; v < nx; ++v) {
    const double rate = sol.x[v];
    out.throughput += rate;
    out.delivered[path_vars[v].demand_index] += rate;
    out.path_rate[static_cast<std::size_t>(path_vars[v].path -
                                           paths.paths().data())] = rate;
  }
  finish(out, sol, nx, nb, options);
  return out;
}

FluidSolution solve_arc_lp(const Graph& g,
                           std::span<const double> edge_capacity,
                           const PaymentGraph& demands,
                           const FluidOptions& options) {
  check_capacity(g, edge_capacity);
  const std::vector<Demand> ds = demands.demands();
  const bool rebalancing =
      std::isfinite(options.gamma) || options.rebalancing_budget >= 0;

  // Variables: f[k][a] per commodity k and arc a, then t[k] (delivered
  // rate), then b[a] if rebalancing.
  const std::size_t na = g.arc_count();
  const std::size_t nk = ds.size();
  const std::size_t f_base = 0;
  const std::size_t t_base = nk * na;
  const std::size_t b_base = t_base + nk;
  const std::size_t nb = rebalancing ? na : 0;
  auto fvar = [&](std::size_t k, ArcId a) { return f_base + k * na + a; };

  lp::Problem prob(b_base + nb);
  for (std::size_t k = 0; k < nk; ++k) prob.set_objective(t_base + k, 1.0);

  for (std::size_t k = 0; k < nk; ++k) {
    // Delivered rate bounded by demand.
    prob.add_constraint({{t_base + k, 1.0}}, lp::Relation::kLessEq,
                        ds[k].rate);
    // Conservation: out - in = t at src, -t at dst, 0 elsewhere.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      std::vector<lp::Term> terms;
      for (const ArcId a : g.out_arcs(v)) {
        terms.push_back({fvar(k, a), 1.0});
        terms.push_back({fvar(k, graph::reverse(a)), -1.0});
      }
      if (terms.empty() && v != ds[k].src && v != ds[k].dst) continue;
      if (v == ds[k].src) {
        terms.push_back({t_base + k, -1.0});
      } else if (v == ds[k].dst) {
        terms.push_back({t_base + k, 1.0});
      }
      prob.add_constraint(std::move(terms), lp::Relation::kEq, 0.0);
    }
  }
  // Capacity per edge.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!std::isfinite(edge_capacity[e])) continue;
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < nk; ++k) {
      terms.push_back({fvar(k, graph::forward_arc(e)), 1.0});
      terms.push_back({fvar(k, graph::backward_arc(e)), 1.0});
    }
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                        edge_capacity[e] / options.delta);
  }
  // Balance per arc.
  for (ArcId a = 0; a < na; ++a) {
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < nk; ++k) {
      terms.push_back({fvar(k, a), 1.0});
      terms.push_back({fvar(k, graph::reverse(a)), -1.0});
    }
    if (rebalancing) terms.push_back({b_base + a, -1.0});
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq, 0.0);
  }
  add_rebalancing(prob, b_base, nb, options);

  const lp::Solution sol = lp::solve(prob);
  FluidSolution out;
  out.optimal = sol.optimal();
  if (!out.optimal) return out;
  out.delivered.assign(nk, 0.0);
  for (std::size_t k = 0; k < nk; ++k) {
    out.delivered[k] = sol.x[t_base + k];
    out.throughput += sol.x[t_base + k];
  }
  finish(out, sol, b_base, nb, options);
  return out;
}

std::vector<double> throughput_vs_rebalancing(
    const Graph& g, std::span<const double> edge_capacity,
    const PaymentGraph& demands, std::span<const double> budgets,
    double delta) {
  std::vector<double> t;
  t.reserve(budgets.size());
  for (const double budget : budgets) {
    FluidOptions opt;
    opt.delta = delta;
    opt.gamma = 0.0;
    opt.rebalancing_budget = std::max(budget, 0.0);
    t.push_back(solve_arc_lp(g, edge_capacity, demands, opt).throughput);
  }
  return t;
}

}  // namespace spider::fluid
