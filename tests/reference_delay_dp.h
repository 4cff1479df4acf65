#pragma once

/// The end-to-end delay DP as it ran before ClassRouting kept its ECMP DAG:
/// per destination, sort the reachable nodes by increasing distance and, at
/// each node, re-test every out-arc with the tightness predicate. Kept as the
/// test oracle of ClassRouting::end_to_end_delays, which must match it bit
/// for bit (routing_test, differential_fuzz).

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/spf.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "traffic/traffic_matrix.h"
#include "util/rng.h"

namespace dtr::test {

inline void reference_end_to_end_delays(const Graph& g, const ClassRouting& routing,
                                        std::span<const double> arc_cost, ArcAliveMask alive,
                                        std::span<const double> arc_delay_ms,
                                        const TrafficMatrix& demands, SlaDelayMode mode,
                                        std::span<const NodeId> skip_nodes,
                                        std::vector<double>& out) {
  const std::size_t n = g.num_nodes();
  out.assign(n * n, -1.0);
  const GraphCsr& csr = g.csr();
  const bool worst = mode == SlaDelayMode::kWorstPath;
  std::vector<double> node_delay(n);
  std::vector<NodeId> order;
  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip_nodes, t)) continue;
    const std::vector<double>& dist = routing.distances()[t];
    bool any_demand = false;
    for (NodeId s = 0; s < n && !any_demand; ++s)
      any_demand = s != t && !is_skipped(skip_nodes, s) && demands.at(s, t) > 0.0;
    if (!any_demand) continue;

    order.clear();
    for (NodeId u = 0; u < n; ++u)
      if (dist[u] != kInfDist) order.push_back(u);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });

    std::fill(node_delay.begin(), node_delay.end(), 0.0);
    for (NodeId u : order) {
      if (u == t) continue;
      int tight_count = 0;
      double acc = worst ? -kInfDist : 0.0;
      for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
        const ArcId a = csr.out_arc[k];
        const NodeId v = csr.out_head[k];
        if ((!alive.empty() && alive[a] == 0) || !arc_is_tight(u, v, arc_cost[a], dist))
          continue;
        ++tight_count;
        const double through = arc_delay_ms[a] + node_delay[v];
        acc = worst ? std::max(acc, through) : acc + through;
      }
      node_delay[u] = worst ? acc : (tight_count > 0 ? acc / tight_count : 0.0);
    }
    for (NodeId s = 0; s < n; ++s) {
      if (s == t || is_skipped(skip_nodes, s) || demands.at(s, t) <= 0.0) continue;
      out[static_cast<std::size_t>(s) * n + t] = dist[s] == kInfDist ? kInfDist : node_delay[s];
    }
  }
}

/// Builds one class's routing over `demands` through every path that writes
/// its ECMP DAG and order rows — compute with dead arcs and a skipped node,
/// compute_from_base (delta-SPF, and with every moved destination forced
/// through the full-Dijkstra fallback), compute_from_weight_delta, and a
/// failure patched from that weight-delta routing, which reads the merged
/// rows as base rows — under random link weights in [1, wmax] (wmax = 2
/// makes ECMP ties common), then compares end_to_end_delays with the
/// reference under both SlaDelayModes and random arc delays. Returns "<path>/<mode>" for every comparison whose
/// bytes differ; `checks` counts the comparisons made.
inline std::vector<std::string> delay_dp_mismatches(const Graph& g, const TrafficMatrix& demands,
                                                    int wmax, Rng& rng, std::size_t& checks) {
  const std::size_t n = g.num_nodes();
  const int num_links = static_cast<int>(g.num_links());
  std::vector<double> cost(g.num_arcs());
  std::vector<double> link_cost(g.num_links());
  for (double& c : link_cost) c = rng.uniform_int(1, wmax);
  for (ArcId a = 0; a < g.num_arcs(); ++a) cost[a] = link_cost[g.arc(a).link];
  std::vector<double> arc_delay(g.num_arcs());
  for (double& d : arc_delay) d = rng.uniform(0.1, 10.0);
  const auto random_link = [&] { return static_cast<LinkId>(rng.uniform_int(0, num_links - 1)); };

  std::vector<std::string> mismatches;
  std::vector<double> got, want;
  const auto compare = [&](const std::string& path, const ClassRouting& r,
                           std::span<const double> c, ArcAliveMask alive,
                           std::span<const NodeId> skip) {
    for (const SlaDelayMode mode : {SlaDelayMode::kExpected, SlaDelayMode::kWorstPath}) {
      r.end_to_end_delays(g, c, alive, arc_delay, demands, mode, skip, got);
      reference_end_to_end_delays(g, r, c, alive, arc_delay, demands, mode, skip, want);
      ++checks;
      if (got.size() != want.size() ||
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0)
        mismatches.push_back(path + (mode == SlaDelayMode::kExpected ? "/expected" : "/worst"));
    }
  };

  // Dead arcs (one or two links) and one skipped node.
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (int i = 0, k = rng.uniform_int(1, 2); i < k; ++i)
    for (ArcId a : g.link_arcs(random_link())) alive[a] = 0;
  const std::vector<NodeId> skip{static_cast<NodeId>(rng.uniform_index(n))};
  ClassRouting full;
  full.compute(g, cost, demands, alive, skip);
  compare("compute", full, cost, alive, skip);

  ClassRouting base;
  RoutingBaseRecord record;
  base.compute(g, cost, demands, {}, {}, &record);
  compare("compute_no_failure", base, cost, {}, {});

  FailureScratch scratch;
  const LinkId failed = random_link();
  const std::span<const ArcId> removed = g.link_arcs(failed);
  std::vector<std::uint8_t> failed_alive(g.num_arcs(), 1);
  for (ArcId a : removed) failed_alive[a] = 0;
  ClassRouting patched;
  patched.compute_from_base(g, cost, demands, base, record, removed, failed_alive, 0.25, scratch);
  compare("compute_from_base", patched, cost, failed_alive, {});
  ClassRouting fallback;
  fallback.compute_from_base(g, cost, demands, base, record, removed, failed_alive, 0.0, scratch);
  compare("compute_from_base_fallback", fallback, cost, failed_alive, {});

  std::vector<double> new_cost = cost;
  std::vector<ArcCostDelta> changes;
  const LinkId changed = random_link();
  const double w = rng.uniform_int(1, wmax + 2);
  for (ArcId a : g.link_arcs(changed)) {
    changes.push_back({a, cost[a]});
    new_cost[a] = w;
  }
  ClassRouting delta;
  delta.compute_from_weight_delta(g, new_cost, demands, base, record, changes, 0.25, scratch);
  compare("compute_from_weight_delta", delta, new_cost, {}, {});

  RoutingBaseRecord delta_record;
  delta.record_contributions(g, new_cost, demands, {}, {}, delta_record);
  const std::span<const ArcId> removed_again = g.link_arcs(random_link());
  std::vector<std::uint8_t> again_alive(g.num_arcs(), 1);
  for (ArcId a : removed_again) again_alive[a] = 0;
  ClassRouting chained;
  chained.compute_from_base(g, new_cost, demands, delta, delta_record, removed_again,
                            again_alive, 0.25, scratch);
  compare("chained_patch", chained, new_cost, again_alive, {});
  return mismatches;
}

}  // namespace dtr::test
