#pragma once

#include "graph/graph.h"
#include "traffic/traffic_matrix.h"

namespace dtr {

/// Load-level calibration (Sec. V-A: "different traffic patterns and
/// intensities used to generate heterogeneous load levels", e.g. average
/// utilization 0.43 or maximum utilization 0.74/0.90).
///
/// Utilization depends on routing, which is what the optimizer searches; as a
/// deterministic reference we scale demands so the target holds under
/// *min-hop ECMP routing* of the total demand (unit weights). The optimized
/// routings land close to this reference (asserted in integration tests).
struct UtilizationTarget {
  enum class Kind : unsigned char { kAverage, kMax };
  Kind kind = Kind::kAverage;
  double value = 0.43;
};

/// Scales `tm` in place; returns the factor applied. Throws
/// std::invalid_argument unless the target is finite and > 0.
double scale_to_utilization(const Graph& g, TrafficMatrix& tm,
                            const UtilizationTarget& target);

/// Scales both classes by the common factor that calibrates their sum.
double scale_to_utilization(const Graph& g, ClassedTraffic& traffic,
                            const UtilizationTarget& target);

/// Utilization of the total demand under min-hop ECMP routing (diagnostic).
struct UtilizationSummary {
  double average = 0.0;
  double max = 0.0;
};
UtilizationSummary min_hop_utilization(const Graph& g, const TrafficMatrix& tm);

}  // namespace dtr
