// Tests for the parallel experiment runner and structured telemetry:
// (a) N-thread and 1-thread sweeps produce identical metrics,
// (b) histogram percentiles match a sorted-vector oracle,
// (c) JSON/CSV round-trip of a Metrics snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "exp/histogram.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace spider;

std::vector<exp::TrialSpec> small_grid() {
  exp::SweepConfig cfg;
  cfg.schemes = {"shortest-path", "spider-waterfilling"};
  cfg.topologies = {"ring-8"};
  cfg.capacities_units = {150.0};
  cfg.seeds = 2;
  cfg.base_seed = 11;
  cfg.txns = 150;
  cfg.end_time = 20.0;
  cfg.collect_series = true;
  cfg.series_bucket = 5.0;
  return exp::make_trials(cfg);
}

TEST(Runner, MapPreservesIndexOrder) {
  const exp::Runner runner(4);
  const auto out = runner.map(
      100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(Runner, ForEachRunsEveryIndexExactlyOnce) {
  const exp::Runner runner(3);
  std::vector<std::atomic<int>> hits(257);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, PropagatesExceptions) {
  const exp::Runner runner(2);
  EXPECT_THROW(
      runner.for_each(8,
                      [](std::size_t i) {
                        if (i == 5) throw std::runtime_error("trial 5 died");
                      }),
      std::runtime_error);
}

TEST(Runner, DerivedSeedsAreStableAndWellSeparated) {
  EXPECT_EQ(exp::derive_seed(1, 0), exp::derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(exp::derive_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions over a realistic sweep
  EXPECT_NE(exp::derive_seed(1, 7), exp::derive_seed(2, 7));
}

// (a) The tentpole guarantee: a parallel sweep is bit-identical to the
// serial one. Serialized JSON equality is the strongest practical check
// -- it covers every scalar, the histogram buckets, and all time series.
TEST(Runner, ParallelSweepMatchesSerialByteForByte) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  ASSERT_EQ(trials.size(), 4u);

  const auto serial = exp::run_trials(trials, exp::Runner(1));
  const auto parallel = exp::run_trials(trials, exp::Runner(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(exp::report::metrics_to_json(serial[i].metrics).dump(),
              exp::report::metrics_to_json(parallel[i].metrics).dump())
        << "trial " << i << " diverged across thread counts";
  }
  // The workload actually did something.
  for (const auto& r : serial) {
    EXPECT_GT(r.metrics.attempted, 0u);
    EXPECT_GT(r.metrics.succeeded, 0u);
    EXPECT_FALSE(r.metrics.queue_depth_series.empty());
    EXPECT_EQ(r.metrics.channel_imbalance_series.size(), 8u);
  }
}

// Replicas use derived seeds: different traces, hence (generically)
// different metrics across seed_index.
TEST(Runner, SeedReplicasDiffer) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  EXPECT_NE(trials[0].workload_seed, trials[2].workload_seed);
  EXPECT_EQ(trials[0].workload_seed, trials[1].workload_seed)
      << "schemes within a replica must share the trace";
}

// (b) Histogram percentiles vs. a sorted-vector oracle.
TEST(Histogram, PercentilesMatchSortedOracle) {
  exp::Histogram h(1e-3, 1e4, 16);
  std::mt19937_64 rng(123);
  std::lognormal_distribution<double> dist(0.5, 1.2);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    h.add(v);
  }
  std::sort(samples.begin(), samples.end());
  const double tol = h.relative_error() + 1e-9;
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double oracle = samples[rank - 1];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, oracle, oracle * tol)
        << "q=" << q << " oracle=" << oracle << " est=" << est;
  }
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_NEAR(h.mean(),
              std::accumulate(samples.begin(), samples.end(), 0.0) / 5000.0,
              1e-9);
}

TEST(Histogram, EdgeCases) {
  exp::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.add(0.0);                       // underflow bucket
  h.add(1e9);                       // overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(0.0), h.min_value());
  EXPECT_EQ(h.quantile(1.0), h.max_value());

  exp::Histogram a(1e-3, 1e4, 16);
  exp::Histogram b(1e-3, 1e4, 16);
  a.add(1.0);
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.sum(), 3.0);
}

// (c) JSON round-trip of a full Metrics snapshot from a real simulation
// (series collection on, so every field is exercised).
TEST(Report, MetricsJsonRoundTrip) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  const exp::TrialResult r = exp::run_trial(trials[1]);
  ASSERT_GT(r.metrics.attempted, 0u);
  ASSERT_GT(r.metrics.latency_hist.count(), 0u);

  const exp::Json j = exp::report::metrics_to_json(r.metrics);
  const std::string text = j.dump(2);
  const exp::Json parsed = exp::Json::parse(text);
  const sim::Metrics restored = exp::report::metrics_from_json(parsed);
  EXPECT_TRUE(restored == r.metrics);
  // And the round-trip is a fixed point at the byte level.
  EXPECT_EQ(exp::report::metrics_to_json(restored).dump(2), text);
}

TEST(Report, MetricsCsvRoundTrip) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  const exp::TrialResult r = exp::run_trial(trials[0]);
  const std::string row = exp::report::metrics_csv_row(r.metrics);
  const sim::Metrics restored = exp::report::metrics_from_csv_row(row);
  EXPECT_EQ(restored.attempted, r.metrics.attempted);
  EXPECT_EQ(restored.succeeded, r.metrics.succeeded);
  EXPECT_EQ(restored.partial, r.metrics.partial);
  EXPECT_EQ(restored.failed, r.metrics.failed);
  EXPECT_EQ(restored.attempted_volume, r.metrics.attempted_volume);
  EXPECT_EQ(restored.delivered_volume, r.metrics.delivered_volume);
  EXPECT_EQ(restored.completed_volume, r.metrics.completed_volume);
  EXPECT_EQ(restored.total_attempt_rounds, r.metrics.total_attempt_rounds);
  EXPECT_EQ(restored.units_sent, r.metrics.units_sent);
  EXPECT_DOUBLE_EQ(restored.sum_completion_latency,
                   r.metrics.sum_completion_latency);
  EXPECT_EQ(restored.fees_paid, r.metrics.fees_paid);
  // Derived columns agree with the originals after reconstruction.
  EXPECT_DOUBLE_EQ(restored.success_ratio(), r.metrics.success_ratio());
  EXPECT_DOUBLE_EQ(restored.success_volume(), r.metrics.success_volume());
}

TEST(Report, SpiderCcCountersSurviveJsonAndCsvRoundTrip) {
  // A congested packet-backed trial with an aggressive mark threshold
  // and a short per-launch timeout, so all three spider-cc telemetry
  // counters are nonzero and the new serialization columns are
  // exercised with real values, not zeros.
  exp::TrialSpec spec;
  spec.scheme = "spider-cc";
  spec.topology = "line-6";
  spec.workload_seed = 17;
  spec.txns = 400;
  spec.end_time = 25.0;
  spec.capacity_units = 60.0;
  spec.cc_mark_threshold = 0.05;
  spec.audit = true;
  const exp::TrialResult r = exp::run_trial(spec);
  ASSERT_GT(r.metrics.attempted, 0u);
  ASSERT_GT(r.metrics.cc_marked_acks, 0u);
  ASSERT_GT(r.metrics.cc_window_decreases, 0u);
  ASSERT_GT(r.metrics.cc_timeout_retries, 0u);

  const exp::Json j = exp::report::metrics_to_json(r.metrics);
  const sim::Metrics from_json =
      exp::report::metrics_from_json(exp::Json::parse(j.dump(2)));
  EXPECT_TRUE(from_json == r.metrics);

  const sim::Metrics from_csv = exp::report::metrics_from_csv_row(
      exp::report::metrics_csv_row(r.metrics));
  EXPECT_EQ(from_csv.cc_marked_acks, r.metrics.cc_marked_acks);
  EXPECT_EQ(from_csv.cc_window_decreases, r.metrics.cc_window_decreases);
  EXPECT_EQ(from_csv.cc_timeout_retries, r.metrics.cc_timeout_retries);
}

// A snapshot with every scalar counter set to a distinct non-zero value:
// a uint64 above 2^53 (must not pass through a double), a negative
// Amount and a non-round double. Histogram and series stay at their
// defaults, so CSV (scalars only) can reproduce the whole snapshot.
sim::Metrics every_counter_set() {
  sim::Metrics m;
  m.attempted = (std::uint64_t{1} << 53) + 1;
  m.succeeded = 3;
  m.partial = 4;
  m.failed = 5;
  m.attempted_volume = 6000;
  m.delivered_volume = 7000;
  m.completed_volume = 8000;
  m.total_attempt_rounds = 9;
  m.units_sent = 10;
  m.sum_completion_latency = 0.1 + 0.2;
  m.rebalance_events = 11;
  m.rebalanced_volume = -12000;
  m.fees_paid = 13;
  m.fault_events_applied = 14;
  m.fault_node_downs = 15;
  m.fault_channel_closures = 16;
  m.fault_withhold_spells = 17;
  m.fault_stale_spells = 18;
  m.fault_units_failed = 19;
  m.fault_reroutes = 20;
  m.fault_withheld_acks = 21;
  m.fault_stale_decisions = 22;
  m.fault_backoff_retries = 23;
  m.fault_jam_spells = 24;
  m.fault_jam_locked_volume = 25000;
  m.fault_grief_spells = 26;
  m.fault_griefed_acks = 27;
  m.cc_marked_acks = 28;
  m.cc_window_decreases = 29;
  m.cc_timeout_retries = 30;
  return m;
}

// metrics_to_json(every_counter_set()).dump(), byte for byte: key
// order, integer spelling and shortest-round-trip doubles are the
// report format's contract.
constexpr const char* kEveryCounterJson =
    R"({"attempted":9007199254740993,"succeeded":3,"partial":4,"failed":5,)"
    R"("attempted_volume":6000,"delivered_volume":7000,)"
    R"("completed_volume":8000,"total_attempt_rounds":9,"units_sent":10,)"
    R"("sum_completion_latency":0.30000000000000004,"rebalance_events":11,)"
    R"("rebalanced_volume":-12000,"fees_paid":13,"fault_events_applied":14,)"
    R"("fault_node_downs":15,"fault_channel_closures":16,)"
    R"("fault_withhold_spells":17,"fault_stale_spells":18,)"
    R"("fault_units_failed":19,"fault_reroutes":20,"fault_withheld_acks":21,)"
    R"("fault_stale_decisions":22,"fault_backoff_retries":23,)"
    R"("fault_jam_spells":24,"fault_jam_locked_volume":25000,)"
    R"("fault_grief_spells":26,"fault_griefed_acks":27,"cc_marked_acks":28,)"
    R"("cc_window_decreases":29,"cc_timeout_retries":30,)"
    R"("success_ratio":3.3306690738754696e-16,)"
    R"("success_volume":1.1666666666666667,)"
    R"("mean_completion_latency":0.10000000000000002,"latency_p50":0,)"
    R"("latency_p95":0,"latency_p99":0,"latency_hist":{"min":0.001,)"
    R"("max":10000,"buckets_per_decade":16,"count":0,"sum":0,"min_seen":0,)"
    R"("max_seen":0,"counts":[]},"series_bucket":1,"delivered_series":[],)"
    R"("channel_imbalance_series":[],"queue_depth_series":[]})";

TEST(Report, CsvHeaderIsPinned) {
  EXPECT_EQ(exp::report::metrics_csv_header(),
            "attempted,succeeded,partial,failed,attempted_volume,"
            "delivered_volume,completed_volume,total_attempt_rounds,"
            "units_sent,sum_completion_latency,rebalance_events,"
            "rebalanced_volume,fees_paid,fault_events_applied,"
            "fault_node_downs,fault_channel_closures,fault_withhold_spells,"
            "fault_stale_spells,fault_units_failed,fault_reroutes,"
            "fault_withheld_acks,fault_stale_decisions,fault_backoff_retries,"
            "fault_jam_spells,fault_jam_locked_volume,fault_grief_spells,"
            "fault_griefed_acks,cc_marked_acks,cc_window_decreases,"
            "cc_timeout_retries,success_ratio,success_volume,"
            "mean_completion_latency,latency_p50,latency_p95,latency_p99");
}

TEST(Report, JsonBytesArePinned) {
  EXPECT_EQ(exp::report::metrics_to_json(every_counter_set()).dump(),
            kEveryCounterJson);
}

TEST(Report, EveryCounterSurvivesJsonAndCsvRoundTrip) {
  const sim::Metrics m = every_counter_set();
  const exp::Json j = exp::report::metrics_to_json(m);
  EXPECT_TRUE(exp::report::metrics_from_json(exp::Json::parse(j.dump())) ==
              m);
  const std::string row = exp::report::metrics_csv_row(m);
  const sim::Metrics from_csv = exp::report::metrics_from_csv_row(row);
  // Metrics equality covers all 30 counters; the JSON diff names any
  // counter that did not survive.
  EXPECT_TRUE(from_csv == m);
  EXPECT_EQ(exp::report::metrics_to_json(from_csv).dump(), j.dump());
  EXPECT_EQ(exp::report::metrics_csv_row(from_csv), row);
}

TEST(Report, MalformedCsvCellsAreRejected) {
  const std::string row = exp::report::metrics_csv_row(every_counter_set());
  // Replaces column `col` of the valid row with `cell`.
  const auto with_cell = [&row](std::size_t col, const std::string& cell) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < col; ++i) begin = row.find(',', begin) + 1;
    return row.substr(0, begin) + cell + row.substr(row.find(',', begin));
  };
  ASSERT_EQ(with_cell(0, std::to_string(every_counter_set().attempted)), row);
  // Column 0 is the unsigned `attempted`, 4 the Amount
  // `attempted_volume`, 9 the double `sum_completion_latency`.
  const std::vector<std::pair<std::size_t, std::string>> bad = {
      {0, "-1"}, {0, "12abc"}, {0, ""}, {0, " 7"},
      {4, "12abc"}, {4, ""}, {9, "1.5junk"}, {9, ""}};
  for (const auto& [col, cell] : bad) {
    EXPECT_THROW((void)exp::report::metrics_from_csv_row(with_cell(col, cell)),
                 std::runtime_error)
        << "column " << col << " cell '" << cell << "'";
  }
  // Negative values stay valid in signed columns.
  EXPECT_EQ(exp::report::metrics_from_csv_row(with_cell(4, "-5"))
                .attempted_volume,
            -5);
}

TEST(Sweep, PacketBackedTrialsAreThreadCountDeterministic) {
  // The packet branch of run_trial must be as thread-count-invariant as
  // the flow branch: a mixed grid (spider-cc + its ungated baseline +
  // a flow scheme) gives identical metrics on 1 and 4 runner threads.
  exp::SweepConfig cfg;
  cfg.schemes = {"spider-cc", "packet-widest", "spider-waterfilling"};
  cfg.topologies = {"ring-8"};
  cfg.capacities_units = {150.0};
  cfg.seeds = 2;
  cfg.base_seed = 19;
  cfg.txns = 200;
  cfg.end_time = 20.0;
  const std::vector<exp::TrialSpec> trials = exp::make_trials(cfg);
  const std::vector<exp::TrialResult> a =
      exp::run_trials(trials, exp::Runner(1));
  const std::vector<exp::TrialResult> b =
      exp::run_trials(trials, exp::Runner(4));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].metrics == b[i].metrics) << trials[i].scheme;
    EXPECT_GT(a[i].metrics.attempted, 0u) << trials[i].scheme;
  }
}

TEST(Report, JsonParserHandlesNestingAndEscapes) {
  const exp::Json j = exp::Json::parse(
      R"({"a": [1, 2.5, -3, true, false, null], "s": "q\"\\\nA", )"
      R"("nested": {"empty_arr": [], "empty_obj": {}}})");
  EXPECT_EQ(j.at("a").size(), 6u);
  EXPECT_EQ(j.at("a").at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_double(), 2.5);
  EXPECT_EQ(j.at("a").at(2).as_int(), -3);
  EXPECT_TRUE(j.at("a").at(3).as_bool());
  EXPECT_TRUE(j.at("a").at(5).is_null());
  EXPECT_EQ(j.at("s").as_string(), "q\"\\\nA");
  EXPECT_EQ(j.at("nested").at("empty_arr").size(), 0u);
  // Round-trip.
  EXPECT_EQ(exp::Json::parse(j.dump()), j);
  EXPECT_EQ(exp::Json::parse(j.dump(2)), j);
  // Malformed input throws.
  EXPECT_THROW((void)exp::Json::parse("{\"a\": 1,}garbage"),
               std::runtime_error);
  EXPECT_THROW((void)exp::Json::parse("[1, 2"), std::runtime_error);
}

TEST(Sweep, NamedTopologiesResolve) {
  EXPECT_EQ(exp::make_named_topology("isp32").node_count(), 32u);
  EXPECT_EQ(exp::make_named_topology("ring-12").node_count(), 12u);
  EXPECT_EQ(exp::make_named_topology("ripple-100").node_count(), 100u);
  EXPECT_THROW((void)exp::make_named_topology("nonsense"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ring-"),
               std::invalid_argument);
}

}  // namespace
