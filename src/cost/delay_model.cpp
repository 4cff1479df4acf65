#include "cost/delay_model.h"

#include <stdexcept>

namespace dtr {

namespace {

/// kappa / C in milliseconds: bytes * 8 bits / (C Mbit/s) = microseconds*8,
/// i.e. bytes * 0.008 / C_mbps milliseconds.
double kappa_over_capacity_ms(double packet_size_bytes, double capacity_mbps) {
  return packet_size_bytes * 0.008 / capacity_mbps;
}

}  // namespace

double queueing_delay_ms(double load_mbps, double capacity_mbps,
                         const DelayModelParams& params) {
  if (!(capacity_mbps > 0.0)) throw std::invalid_argument("queueing_delay_ms: capacity");
  if (load_mbps < 0.0) throw std::invalid_argument("queueing_delay_ms: negative load");

  const double knee = params.linearization_utilization * capacity_mbps;
  double occupancy;  // the x/(C-x) term, linearized past the knee
  if (load_mbps < knee) {
    occupancy = load_mbps / (capacity_mbps - load_mbps);
  } else {
    // Tangent-line extension at x = knee: value u/(1-u), slope C/(C-x)^2.
    const double u = params.linearization_utilization;
    const double value_at_knee = u / (1.0 - u);
    const double slope_at_knee = capacity_mbps / ((capacity_mbps - knee) * (capacity_mbps - knee));
    occupancy = value_at_knee + slope_at_knee * (load_mbps - knee);
  }
  return kappa_over_capacity_ms(params.packet_size_bytes, capacity_mbps) * (occupancy + 1.0);
}

double link_delay_ms(double load_mbps, double capacity_mbps, double prop_delay_ms,
                     const DelayModelParams& params) {
  if (prop_delay_ms < 0.0) throw std::invalid_argument("link_delay_ms: negative delay");
  if (load_mbps / capacity_mbps <= params.utilization_threshold) return prop_delay_ms;  // (1a)
  return queueing_delay_ms(load_mbps, capacity_mbps, params) + prop_delay_ms;           // (1b)
}

}  // namespace dtr
