#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>

namespace spider::workload {

WorkloadConfig isp_workload(std::size_t count, double duration,
                            std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.count = count;
  cfg.duration = duration;
  cfg.mean_size = 170.0;   // paper: ISP dataset mean 170 XRP
  cfg.max_size = 1780.0;   // paper: largest 1780 XRP
  cfg.sigma = 1.0;
  cfg.sender = SenderDistribution::kExponential;
  cfg.seed = seed;
  return cfg;
}

WorkloadConfig ripple_workload(std::size_t count, double duration,
                               std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.count = count;
  cfg.duration = duration;
  cfg.mean_size = 345.0;   // paper: Ripple dataset mean 345 XRP
  cfg.max_size = 2892.0;   // paper: largest 2892 XRP
  cfg.sigma = 1.1;
  cfg.sender = SenderDistribution::kExponential;
  cfg.seed = seed;
  return cfg;
}

Trace generate_trace(const graph::Graph& g, const WorkloadConfig& cfg) {
  if (g.node_count() < 2) {
    throw std::invalid_argument("generate_trace: need >= 2 nodes");
  }
  if (cfg.mean_size <= 0 || cfg.max_size < cfg.mean_size) {
    throw std::invalid_argument("generate_trace: bad size parameters");
  }
  std::mt19937_64 rng(cfg.seed);
  const std::size_t n = g.node_count();

  // Truncated log-normal with target (pre-truncation) mean `mean_size`.
  const double mu = std::log(cfg.mean_size) - cfg.sigma * cfg.sigma / 2.0;
  std::lognormal_distribution<double> size_dist(mu, cfg.sigma);
  auto sample_size = [&]() {
    for (int tries = 0; tries < 1000; ++tries) {
      const double s = size_dist(rng);
      if (s <= cfg.max_size && s >= 0.001) return s;
    }
    return cfg.mean_size;  // pathological sigma; fall back to the mean
  };

  std::exponential_distribution<double> exp_dist(cfg.sender_skew);
  std::uniform_int_distribution<std::size_t> uni_node(0, n - 1);
  auto sample_sender = [&]() -> NodeId {
    if (cfg.sender == SenderDistribution::kUniform) {
      return static_cast<NodeId>(uni_node(rng));
    }
    double x = exp_dist(rng);
    while (x >= 1.0) x = exp_dist(rng);
    return static_cast<NodeId>(x * static_cast<double>(n));
  };

  std::uniform_real_distribution<double> uni_time(0.0, cfg.duration);
  Trace trace;
  trace.reserve(cfg.count);
  for (std::size_t i = 0; i < cfg.count; ++i) {
    Transaction tx;
    tx.src = sample_sender();
    do {
      tx.dst = static_cast<NodeId>(uni_node(rng));
    } while (tx.dst == tx.src);
    tx.amount = core::from_units(sample_size());
    if (tx.amount <= 0) tx.amount = 1;
    tx.arrival = uni_time(rng);
    trace.push_back(tx);
  }
  std::sort(trace.begin(), trace.end(),
            [](const Transaction& a, const Transaction& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return std::tie(a.src, a.dst, a.amount) <
                     std::tie(b.src, b.dst, b.amount);
            });
  return trace;
}

fluid::PaymentGraph estimate_demand(std::size_t node_count, const Trace& trace,
                                    double duration) {
  if (duration <= 0) {
    throw std::invalid_argument("estimate_demand: duration must be > 0");
  }
  fluid::PaymentGraph demand(node_count);
  for (const Transaction& tx : trace) {
    demand.add_demand(tx.src, tx.dst, core::to_units(tx.amount) / duration);
  }
  return demand;
}

TraceStats trace_stats(const Trace& trace) {
  TraceStats st;
  st.count = trace.size();
  for (const Transaction& tx : trace) {
    const double units = core::to_units(tx.amount);
    st.total_volume += units;
    st.max_size = std::max(st.max_size, units);
  }
  if (st.count > 0) {
    st.mean_size = st.total_volume / static_cast<double>(st.count);
  }
  return st;
}

void write_trace_csv(std::ostream& os, const Trace& trace) {
  // Arrival times must survive the round trip bit-exactly.
  os.precision(17);
  os << "src,dst,amount_milli,arrival\n";
  for (const Transaction& tx : trace) {
    os << tx.src << ',' << tx.dst << ',' << tx.amount << ',' << tx.arrival
       << '\n';
  }
}

Trace read_trace_csv(std::istream& is) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line_no == 1 && line.rfind("src,", 0) == 0) continue;
    std::istringstream ss(line);
    std::string f[4];
    for (int i = 0; i < 4; ++i) {
      if (!std::getline(ss, f[i], ',')) {
        throw std::runtime_error("read_trace_csv: malformed line " +
                                 std::to_string(line_no));
      }
    }
    Transaction tx;
    try {
      tx.src = static_cast<NodeId>(std::stoul(f[0]));
      tx.dst = static_cast<NodeId>(std::stoul(f[1]));
      tx.amount = std::stoll(f[2]);
      tx.arrival = std::stod(f[3]);
    } catch (const std::exception&) {
      throw std::runtime_error("read_trace_csv: bad field on line " +
                               std::to_string(line_no));
    }
    if (!std::isfinite(tx.arrival) || tx.arrival < 0) {
      throw std::runtime_error("read_trace_csv: arrival not finite and >= 0 "
                               "on line " + std::to_string(line_no));
    }
    trace.push_back(tx);
  }
  return trace;
}

void save_trace_csv(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_csv: cannot open " + path);
  write_trace_csv(out, trace);
}

Trace load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace_csv: cannot open " + path);
  return read_trace_csv(in);
}

}  // namespace spider::workload
