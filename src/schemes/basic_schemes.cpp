// ShortestPathScheme, MaxFlowScheme, WaterfillingScheme, and the factory.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/maxflow.hpp"
#include "routing/waterfilling.hpp"
#include "schemes/schemes.hpp"

namespace spider::schemes {

// ---------------------------------------------------------------- shortest

void ShortestPathScheme::prepare(const graph::Graph& g,
                                 const std::vector<core::Amount>&,
                                 const fluid::PaymentGraph&, double) {
  cache_ = graph::PathCache(&g, graph::PathMode::kShortest, 1);
}

std::vector<RouteChoice> ShortestPathScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  std::vector<RouteChoice> choices;
  for (const graph::Path& p : cache_.paths(req.src, req.dst)) {
    const core::Amount amt = std::min(remaining, net.path_available(p));
    if (amt > 0) choices.push_back(RouteChoice{p, amt});
  }
  return choices;
}

// ---------------------------------------------------------------- max-flow

std::vector<RouteChoice> MaxFlowScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  const graph::Graph& g = net.graph();
  std::vector<double> caps(g.arc_count());
  for (graph::ArcId a = 0; a < g.arc_count(); ++a) {
    caps[a] = core::to_units(net.available(a));
  }
  const double needed = core::to_units(remaining);
  const auto mf = graph::max_flow(g, req.src, req.dst, caps, needed);
  if (mf.value + 1e-9 < needed) return {};  // atomic failure

  // Re-assign the decomposition in exact integer milli-units against a
  // local copy of the availabilities (the double flow can be a fraction
  // of a milli-unit off per path).
  std::vector<core::Amount> avail(g.arc_count());
  for (graph::ArcId a = 0; a < g.arc_count(); ++a) {
    avail[a] = net.available(a);
  }
  std::vector<RouteChoice> choices;
  core::Amount left = remaining;
  for (const auto& [path, value] : mf.paths) {
    if (left <= 0) break;
    core::Amount bottleneck = left;
    for (const graph::ArcId a : path.arcs) {
      bottleneck = std::min(bottleneck, avail[a]);
    }
    if (bottleneck <= 0) continue;
    for (const graph::ArcId a : path.arcs) avail[a] -= bottleneck;
    choices.push_back(RouteChoice{path, bottleneck});
    left -= bottleneck;
  }
  if (left > 0) return {};  // rounding shortfall: treat as failure
  return choices;
}

// ------------------------------------------------------------ waterfilling

void WaterfillingScheme::prepare(const graph::Graph& g,
                                 const std::vector<core::Amount>&,
                                 const fluid::PaymentGraph&, double) {
  cache_ = graph::PathCache(&g, mode_, k_);
}

std::vector<RouteChoice> WaterfillingScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  const std::span<const graph::Path> paths =
      cache_.paths(req.src, req.dst);
  if (paths.empty()) return {};
  std::vector<double> caps(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    caps[i] = core::to_units(net.path_available(paths[i]));
  }
  const std::vector<double> alloc =
      routing::waterfill(caps, core::to_units(remaining));
  std::vector<RouteChoice> choices;
  core::Amount assigned = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    core::Amount amt = core::from_units(alloc[i]);
    amt = std::min(amt, remaining - assigned);
    // from_units rounds; never exceed the path's true availability.
    amt = std::min(amt, net.path_available(paths[i]));
    if (amt > 0) {
      choices.push_back(RouteChoice{paths[i], amt});
      assigned += amt;
    }
  }
  return choices;
}

// -------------------------------------------------- stale waterfilling

void StaleWaterfillingScheme::prepare(const graph::Graph& g,
                                      const std::vector<core::Amount>&,
                                      const fluid::PaymentGraph&, double) {
  cache_ = graph::PathCache(&g, graph::PathMode::kEdgeDisjoint, k_);
  snapshots_.clear();
}

std::vector<RouteChoice> StaleWaterfillingScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint now) {
  const std::span<const graph::Path> paths =
      cache_.paths(req.src, req.dst);
  if (paths.empty()) return {};
  Snapshot& snap = snapshots_[{req.src, req.dst}];
  if (now - snap.taken >= refresh_interval_) {
    snap.taken = now;
    snap.capacities.resize(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      snap.capacities[i] = net.path_available(paths[i]);
    }
  }
  std::vector<double> caps(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    caps[i] = core::to_units(snap.capacities[i]);
  }
  const std::vector<double> alloc =
      routing::waterfill(caps, core::to_units(remaining));
  std::vector<RouteChoice> choices;
  core::Amount assigned = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    core::Amount amt = core::from_units(alloc[i]);
    // The stale estimate may overshoot the real balance; clamp to what
    // the channel can actually carry right now (the probe told us where
    // to send, the lock tells us how much fits).
    amt = std::min({amt, remaining - assigned,
                    net.path_available(paths[i])});
    if (amt > 0) {
      choices.push_back(RouteChoice{paths[i], amt});
      assigned += amt;
    }
  }
  return choices;
}

// ---------------------------------------------------------------- factory

std::unique_ptr<RoutingScheme> make_scheme(const std::string& name) {
  if (name == "shortest-path") return std::make_unique<ShortestPathScheme>();
  if (name == "max-flow") return std::make_unique<MaxFlowScheme>();
  if (name == "silent-whispers") {
    return std::make_unique<SilentWhispersScheme>();
  }
  if (name == "speedy-murmurs") return std::make_unique<SpeedyMurmursScheme>();
  if (name == "spider-waterfilling") {
    return std::make_unique<WaterfillingScheme>();
  }
  if (name == "spider-waterfilling-stale") {
    return std::make_unique<StaleWaterfillingScheme>();
  }
  if (name == "spider-lp") return std::make_unique<SpiderLpScheme>();
  if (name == "spider-primal-dual") {
    return std::make_unique<SpiderPrimalDualScheme>();
  }
  if (name == "spider-cc") return std::make_unique<SpiderCcScheme>();
  throw std::invalid_argument("make_scheme: unknown scheme '" + name + "'");
}

std::vector<std::string> all_scheme_names() {
  return {"silent-whispers",     "speedy-murmurs", "shortest-path",
          "max-flow",            "spider-waterfilling",
          "spider-lp"};
}

}  // namespace spider::schemes
