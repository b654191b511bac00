// Walks through the paper's §5 analysis on the Fig. 4 example:
//  * the payment graph and its circulation/DAG decomposition (Fig. 5);
//  * shortest-path balanced routing vs optimal balanced routing (Fig. 4);
//  * the effect of on-chain rebalancing (t(B), §5.2.3);
//  * convergence of the decentralized primal-dual algorithm (§5.3).
//
// Build & run:  ./build/examples/balanced_routing

#include <cstdio>
#include <limits>

#include "fluid/circulation.hpp"
#include "fluid/throughput.hpp"
#include "graph/topology.hpp"
#include "routing/primal_dual.hpp"

int main() {
  using namespace spider;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const std::vector<double> unlimited(g.edge_count(), kInf);

  std::printf("Fig. 4 payment graph (paper node k = our node k-1):\n");
  for (const fluid::Demand& d : h.demands()) {
    std::printf("  d(%u -> %u) = %.0f\n", d.src + 1, d.dst + 1, d.rate);
  }
  std::printf("  total demand = %.0f\n\n", h.total_demand());

  // Circulation decomposition (Fig. 5).
  const fluid::CirculationDecomposition dec = fluid::max_circulation(h);
  std::printf("Maximum circulation nu(C*) = %.2f  (paper: 8)\n",
              dec.circulation_value);
  std::printf("DAG remainder value        = %.2f  (paper: 4)\n",
              dec.dag_value);
  std::printf("Circulation edges:\n");
  for (const fluid::Demand& d : dec.circulation.demands()) {
    std::printf("  %u -> %u : %.2f\n", d.src + 1, d.dst + 1, d.rate);
  }

  // Shortest-path balanced routing (Fig. 4b).
  const fluid::PathSet shortest = fluid::k_shortest_path_set(g, h, 1);
  const auto sp = fluid::solve_path_lp(g, unlimited, h, shortest);
  std::printf("\nShortest-path balanced throughput = %.2f  (paper: 5)\n",
              sp.throughput);

  // Optimal balanced routing (Fig. 4c == routing the max circulation).
  const fluid::PathSet all = fluid::all_trails_path_set(g, h);
  const auto opt = fluid::solve_path_lp(g, unlimited, h, all);
  std::printf("Optimal balanced throughput      = %.2f  (paper: 8)\n",
              opt.throughput);
  // The paper states "8/12 = 75%"; 8/12 is actually 66.7% -- we report
  // the faithful ratio of the stated quantities.
  std::printf("Fraction of demand routed        = %.0f%%  (paper text: 75%%,"
              " though 8/12 = 66.7%%)\n",
              100.0 * opt.throughput / h.total_demand());
  std::printf("Optimal flows:\n");
  for (std::size_t i = 0; i < all.path_count(); ++i) {
    if (opt.path_rate[i] <= 1e-9) continue;
    const auto [src, dst] = all.pair_of(i);
    std::printf("  %u -> %u rate %.2f via %s\n", src + 1, dst + 1,
                opt.path_rate[i], graph::to_string(all.paths()[i], g).c_str());
  }

  // t(B): throughput as the on-chain rebalancing budget grows (§5.2.3).
  std::printf("\nThroughput vs on-chain rebalancing budget B:\n");
  const std::vector<double> budgets{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const auto t = fluid::throughput_vs_rebalancing(g, unlimited, h, budgets);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    std::printf("  B = %3.0f  ->  t(B) = %5.2f\n", budgets[i], t[i]);
  }

  // Decentralized primal-dual dynamics (§5.3).
  routing::PrimalDualOptions pd;
  pd.alpha = 0.02;
  pd.eta = 0.02;
  pd.kappa = 0.02;
  pd.iterations = 30000;
  pd.history_stride = 3000;
  const auto res = routing::primal_dual_route(g, unlimited, h, all, pd);
  std::printf("\nPrimal-dual convergence (LP optimum is %.2f):\n",
              opt.throughput);
  for (std::size_t i = 0; i < res.history.size(); ++i) {
    std::printf("  iter %6zu  throughput %.3f\n", i * pd.history_stride,
                res.history[i]);
  }
  std::printf("  final       throughput %.3f\n", res.throughput);
  return 0;
}
