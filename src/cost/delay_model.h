#pragma once

namespace dtr {

/// Link-delay model of Eq. (1):
///
///   D_l = p_l                                     if x_l / C_l <= mu    (1a)
///   D_l = kappa/C_l * (x_l/(C_l - x_l) + 1) + p_l otherwise             (1b)
///
/// kappa is the average packet size; (1b) is the M/M/1 sojourn-time
/// approximation (queueing + transmission). Below utilization mu queueing is
/// treated as negligible relative to propagation (high-speed backbone
/// assumption; paper uses mu = 0.95). To avoid the 1/(C-x) blow-up, the
/// x/(C-x) term is replaced by its tangent line for x/C >= 0.99 (footnote 3),
/// which keeps D continuous, increasing and finite even for x > C.
struct DelayModelParams {
  double packet_size_bytes = 1500.0;  ///< kappa
  double utilization_threshold = 0.95;  ///< mu
  double linearization_utilization = 0.99;
};

/// Queueing + transmission component of (1b) in ms (zero load -> kappa/C).
/// Exposed separately for unit tests and diagnostics.
double queueing_delay_ms(double load_mbps, double capacity_mbps,
                         const DelayModelParams& params);

/// Full link delay D_l in ms.
double link_delay_ms(double load_mbps, double capacity_mbps, double prop_delay_ms,
                     const DelayModelParams& params);

}  // namespace dtr
