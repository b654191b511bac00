#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/topology.hpp"

namespace spider::workload {
namespace {

TEST(Workload, GeneratesRequestedCountSortedByArrival) {
  const graph::Graph g = graph::topology::make_isp32();
  const Trace t = generate_trace(g, isp_workload(5000, 100.0, 1));
  ASSERT_EQ(t.size(), 5000u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i - 1].arrival, t[i].arrival);
  }
  for (const Transaction& tx : t) {
    EXPECT_NE(tx.src, tx.dst);
    EXPECT_LT(tx.src, 32u);
    EXPECT_LT(tx.dst, 32u);
    EXPECT_GT(tx.amount, 0);
    EXPECT_GE(tx.arrival, 0.0);
    EXPECT_LT(tx.arrival, 100.0);
  }
}

TEST(Workload, IspSizesMatchPaperCalibration) {
  const graph::Graph g = graph::topology::make_isp32();
  const Trace t = generate_trace(g, isp_workload(20000, 100.0, 2));
  const TraceStats st = trace_stats(t);
  // Paper: mean 170 XRP, max 1780 XRP. Truncation pulls the mean down a
  // bit; accept a generous band.
  EXPECT_GT(st.mean_size, 110.0);
  EXPECT_LT(st.mean_size, 230.0);
  EXPECT_LE(st.max_size, 1780.0);
  EXPECT_GT(st.max_size, 600.0);  // the tail is actually exercised
}

TEST(Workload, RippleSizesMatchPaperCalibration) {
  const graph::Graph g = graph::topology::make_ripple_like(200, 3);
  const Trace t = generate_trace(g, ripple_workload(20000, 85.0, 3));
  const TraceStats st = trace_stats(t);
  // Paper: mean 345 XRP, max 2892 XRP.
  EXPECT_GT(st.mean_size, 200.0);
  EXPECT_LT(st.mean_size, 480.0);
  EXPECT_LE(st.max_size, 2892.0);
}

TEST(Workload, ExponentialSendersAreSkewed) {
  const graph::Graph g = graph::topology::make_isp32();
  const Trace t = generate_trace(g, isp_workload(20000, 100.0, 4));
  std::vector<std::size_t> counts(32, 0);
  for (const Transaction& tx : t) ++counts[tx.src];
  // Low-index nodes send much more than high-index nodes.
  const std::size_t head = counts[0] + counts[1] + counts[2] + counts[3];
  const std::size_t tail = counts[28] + counts[29] + counts[30] + counts[31];
  EXPECT_GT(head, tail * 3);
}

TEST(Workload, UniformSendersAreFlat) {
  const graph::Graph g = graph::topology::make_isp32();
  WorkloadConfig cfg = isp_workload(20000, 100.0, 5);
  cfg.sender = SenderDistribution::kUniform;
  const Trace t = generate_trace(g, cfg);
  std::vector<std::size_t> counts(32, 0);
  for (const Transaction& tx : t) ++counts[tx.src];
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 400u);  // ~625 expected per node
    EXPECT_LT(c, 900u);
  }
}

TEST(Workload, DeterministicPerSeed) {
  const graph::Graph g = graph::topology::make_isp32();
  const Trace a = generate_trace(g, isp_workload(500, 10.0, 42));
  const Trace b = generate_trace(g, isp_workload(500, 10.0, 42));
  EXPECT_EQ(a, b);
  const Trace c = generate_trace(g, isp_workload(500, 10.0, 43));
  EXPECT_NE(a, c);
}

TEST(Workload, DemandEstimate) {
  Trace t;
  t.push_back({0, 1, core::from_units(100), 0.5});
  t.push_back({0, 1, core::from_units(50), 1.5});
  t.push_back({2, 3, core::from_units(30), 2.0});
  const fluid::PaymentGraph d = estimate_demand(4, t, 10.0);
  EXPECT_NEAR(d.demand(0, 1), 15.0, 1e-9);  // 150 units / 10 s
  EXPECT_NEAR(d.demand(2, 3), 3.0, 1e-9);
  EXPECT_EQ(d.demand_count(), 2u);
  EXPECT_THROW((void)estimate_demand(4, t, 0.0), std::invalid_argument);
}

TEST(Workload, CsvRoundTrip) {
  const graph::Graph g = graph::topology::make_isp32();
  const Trace t = generate_trace(g, isp_workload(200, 10.0, 6));
  std::stringstream ss;
  write_trace_csv(ss, t);
  const Trace back = read_trace_csv(ss);
  EXPECT_EQ(back, t);
}

TEST(Workload, CsvRejectsGarbage) {
  std::istringstream bad("src,dst,amount_milli,arrival\n1,2,three,4\n");
  EXPECT_THROW((void)read_trace_csv(bad), std::runtime_error);
  std::istringstream short_row("1,2\n");
  EXPECT_THROW((void)read_trace_csv(short_row), std::runtime_error);
  // std::stod parses these, but no payment arrives at them; the error
  // names the offending line.
  for (const char* arrival : {"nan", "-4", "inf"}) {
    std::istringstream in(std::string("src,dst,amount_milli,arrival\n"
                                      "1,2,3000,0.5\n1,2,3000,") +
                          arrival + "\n");
    try {
      (void)read_trace_csv(in);
      ADD_FAILURE() << arrival << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Workload, BadConfigThrows) {
  const graph::Graph g = graph::topology::make_isp32();
  WorkloadConfig cfg = isp_workload(10, 10.0, 1);
  cfg.mean_size = -1;
  EXPECT_THROW((void)generate_trace(g, cfg), std::invalid_argument);
  cfg = isp_workload(10, 10.0, 1);
  cfg.max_size = 1.0;  // below mean
  EXPECT_THROW((void)generate_trace(g, cfg), std::invalid_argument);
  EXPECT_THROW((void)generate_trace(graph::Graph(1), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace spider::workload
