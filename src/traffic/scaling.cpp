#include "traffic/scaling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "routing/route_state.h"

namespace dtr {

UtilizationSummary min_hop_utilization(const Graph& g, const TrafficMatrix& tm) {
  const std::vector<double> unit_costs(g.num_arcs(), 1.0);
  const ClassRouting routing(g, unit_costs, tm, {});
  UtilizationSummary summary;
  if (g.num_arcs() == 0) return summary;
  double sum = 0.0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const double u = routing.arc_load(a) / g.arc(a).capacity;
    sum += u;
    summary.max = std::max(summary.max, u);
  }
  summary.average = sum / static_cast<double>(g.num_arcs());
  return summary;
}

double scale_to_utilization(const Graph& g, TrafficMatrix& tm,
                            const UtilizationTarget& target) {
  if (!(target.value > 0.0) || !std::isfinite(target.value))
    throw std::invalid_argument("scale_to_utilization: target must be finite and > 0");
  const UtilizationSummary current = min_hop_utilization(g, tm);
  const double reference =
      target.kind == UtilizationTarget::Kind::kAverage ? current.average : current.max;
  if (!(reference > 0.0))
    throw std::invalid_argument("scale_to_utilization: traffic matrix routes no load");
  const double factor = target.value / reference;  // utilization is linear in demand
  tm.scale(factor);
  return factor;
}

double scale_to_utilization(const Graph& g, ClassedTraffic& traffic,
                            const UtilizationTarget& target) {
  TrafficMatrix total = traffic.combined();
  const double factor = scale_to_utilization(g, total, target);
  traffic.delay.scale(factor);
  traffic.throughput.scale(factor);
  return factor;
}

}  // namespace dtr
