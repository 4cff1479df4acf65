#include "core/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "graph/spf.h"
#include "routing/route_state.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dtr {

double FailureProfile::beta() const { return mean(violations); }

double FailureProfile::beta_top(double fraction) const {
  return top_tail_mean(violations, fraction);
}

double FailureProfile::lambda_sum() const {
  double s = 0.0;
  for (double v : lambda) s += v;
  return s;
}

double FailureProfile::phi_sum() const {
  double s = 0.0;
  for (double v : phi) s += v;
  return s;
}

std::vector<double> FailureProfile::normalized_phi() const {
  std::vector<double> out(phi.size());
  const double denom = phi_uncap > 0.0 ? phi_uncap : 1.0;
  for (std::size_t i = 0; i < phi.size(); ++i) out[i] = phi[i] / denom;
  return out;
}

FailureProfile profile_failures(const Evaluator& evaluator, const WeightSetting& w,
                                std::span<const FailureScenario> scenarios,
                                ThreadPool* pool) {
  FailureProfile profile;
  profile.phi_uncap = evaluator.phi_uncap();
  profile.violations.reserve(scenarios.size());
  profile.lambda.reserve(scenarios.size());
  profile.phi.reserve(scenarios.size());
  const std::vector<EvalResult> results =
      evaluator.evaluate_failures(w, scenarios, pool, EvalDetail::kCostsOnly);
  for (const EvalResult& r : results) {
    profile.violations.push_back(static_cast<double>(r.sla_violations));
    profile.lambda.push_back(r.lambda);
    profile.phi.push_back(r.phi);
  }
  return profile;
}

double beta_phi_percent(const FailureProfile& candidate, const FailureProfile& reference) {
  const double ref = reference.phi_sum();
  if (ref <= 0.0) return 0.0;
  return std::abs(candidate.phi_sum() - ref) / ref * 100.0;
}

LoadRedistribution compare_loads(const Graph& g, const EvalResult& normal,
                                 const EvalResult& failed) {
  if (normal.arc_utilization.size() != g.num_arcs() ||
      failed.arc_utilization.size() != g.num_arcs())
    throw std::invalid_argument("compare_loads: results lack kFull detail");

  LoadRedistribution out;
  double total_increase = 0.0;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    double before = 0.0, after = 0.0;
    for (ArcId a : g.link_arcs(l)) {
      before = std::max(before, normal.arc_utilization[a]);
      after = std::max(after, failed.arc_utilization[a]);
    }
    if (after > before + 1e-12) {
      ++out.links_with_increase;
      total_increase += after - before;
    }
  }
  if (out.links_with_increase > 0)
    out.average_increase = total_increase / out.links_with_increase;
  out.max_utilization = max_value(failed.arc_utilization);
  return out;
}

UtilizationStats utilization_stats(const EvalResult& result) {
  if (result.arc_utilization.empty())
    throw std::invalid_argument("utilization_stats: result lacks kFull detail");
  return {mean(result.arc_utilization), max_value(result.arc_utilization)};
}

double average_max_path_utilization(const Evaluator& evaluator, const WeightSetting& w) {
  const Graph& g = evaluator.graph();
  const EvalResult normal = evaluator.evaluate(w, FailureScenario::none(), EvalDetail::kFull);

  std::vector<double> cost_delay;
  w.arc_costs(g, TrafficClass::kDelay, cost_delay);

  const std::size_t n = g.num_nodes();
  const TrafficMatrix& demands = evaluator.traffic().delay;
  double sum = 0.0;
  std::size_t count = 0;

  std::vector<double> dist;
  std::vector<double> max_util(n);
  std::vector<NodeId> order;
  for (NodeId t = 0; t < n; ++t) {
    shortest_distances_to(g, t, cost_delay, {}, dist);

    order.clear();
    for (NodeId u = 0; u < n; ++u)
      if (dist[u] != kInfDist) order.push_back(u);
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });

    std::fill(max_util.begin(), max_util.end(), 0.0);
    const GraphCsr& csr = g.csr();
    for (NodeId u : order) {
      if (u == t) continue;
      double best = 0.0;
      for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
        const ArcId a = csr.out_arc[k];
        const NodeId v = csr.out_head[k];
        if (!arc_is_tight(u, v, cost_delay[a], dist)) continue;
        best = std::max(best, std::max(normal.arc_utilization[a], max_util[v]));
      }
      max_util[u] = best;
    }
    for (NodeId s = 0; s < n; ++s) {
      if (s == t || demands.at(s, t) <= 0.0 || dist[s] == kInfDist) continue;
      sum += max_util[s];
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

std::vector<double> sorted_desc(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end(), std::greater<>());
  return v;
}

int unavoidable_violations(const Evaluator& evaluator, const FailureScenario& scenario) {
  const Graph& g = evaluator.graph();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, scenario, mask);
  const std::span<const NodeId> skip = skipped_nodes(scenario);

  std::vector<double> prop_cost(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) prop_cost[a] = g.arc(a).prop_delay_ms;

  const TrafficMatrix& demands = evaluator.traffic().delay;
  const double theta = evaluator.params().sla.theta_ms;
  int count = 0;
  std::vector<double> dist;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    if (is_skipped(skip, t)) continue;
    bool any = false;
    for (NodeId s = 0; s < g.num_nodes() && !any; ++s)
      any = (s != t && !is_skipped(skip, s) && demands.at(s, t) > 0.0);
    if (!any) continue;
    shortest_distances_to(g, t, prop_cost, mask, dist);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (s == t || is_skipped(skip, s) || demands.at(s, t) <= 0.0) continue;
      if (dist[s] > theta) ++count;  // includes kInfDist (disconnected)
    }
  }
  return count;
}

std::vector<double> unavoidable_violation_profile(
    const Evaluator& evaluator, std::span<const FailureScenario> scenarios,
    ThreadPool* pool) {
  std::vector<double> out(scenarios.size());
  parallel_for(pool, scenarios.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(unavoidable_violations(evaluator, scenarios[i]));
  });
  return out;
}

}  // namespace dtr
