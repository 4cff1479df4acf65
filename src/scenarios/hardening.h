#pragma once

/// Hardening objectives: WHAT Phase 2 optimizes against, as a first-class
/// value. A HardeningObjective pairs a scenario catalog (ScenarioSet, weights
/// = probabilities) with an aggregation mode — expected cost, weighted
/// percentile, or expected downtime. The per-link probabilistic failure
/// model is one shape of it (objective_from_link_probabilities). The
/// optimizer consumes it through the weighted Evaluator::sweep early-abort
/// path; campaigns and dtr_tool build it from `objective=` / `harden_set=`
/// spec keys.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.h"
#include "scenarios/scenario_set.h"

namespace dtr {

/// How per-scenario costs reduce to the single objective Phase 2 minimizes.
enum class AggregationMode : std::uint8_t {
  /// Probability-weighted cost sums Sum_s w_s * (Lambda_s, Phi_s) — the
  /// Eq. (4) compound cost generalized to arbitrary weights (an expectation
  /// when the weights are failure probabilities). Early-aborts exactly like
  /// the classic critical-set sweep.
  kExpectedCost,
  /// Weighted percentile of the per-scenario (Lambda, Phi) distributions at
  /// HardeningObjective::percentile — the tail-risk view ("the cost the
  /// network stays under in p of failure-weighted states").
  kWeightedPercentile,
  /// Expected avoidable SLA downtime in minutes per period:
  ///   Sum_s w_s * max(0, violations_s - unavoidable_s) * period_minutes
  /// where unavoidable_s is metrics::unavoidable_violations — the floor no
  /// routing can beat — so the objective measures only the downtime weight
  /// search can actually remove. Ties lexicographically to the weighted Phi
  /// sum as the secondary criterion.
  kExpectedDowntime,
};

std::string_view to_string(AggregationMode mode);

/// Parses the campaign-spec / CLI spelling (expected|percentile|downtime).
std::optional<AggregationMode> parse_aggregation_mode(std::string_view text);

/// The Phase-2 objective: a scenario catalog plus an aggregation mode.
/// Weights are non-negative per-scenario masses (probabilities under the
/// availability model, 1.0 when unweighted).
struct HardeningObjective {
  ScenarioSet set;
  AggregationMode mode = AggregationMode::kExpectedCost;
  /// kWeightedPercentile only: the percentile p in [0, 1].
  double percentile = 0.95;
  /// kExpectedDowntime only: minutes per availability period (default: a
  /// 30-day month), the scale of "violation minutes".
  double period_minutes = 43200.0;

  bool operator==(const HardeningObjective&) const = default;
};

/// Throws std::invalid_argument when the objective is unusable against `g`:
/// empty catalog, out-of-range scenario elements, a percentile outside
/// [0, 1], or a downtime period that is not finite and positive. NaN counts
/// as out of range.
void validate_objective(const HardeningObjective& objective, const Graph& g);

/// The per-link probabilistic failure model as an objective: every
/// single-link failure of `g` in link order, weighted by `probabilities`
/// (size must equal num_links), expected-cost aggregation.
HardeningObjective objective_from_link_probabilities(
    const Graph& g, std::span<const double> probabilities);

/// True when the objective has the per-link failure model's shape: an
/// expected-cost objective whose catalog is exactly one single-link failure
/// per physical link, in link order (what objective_from_link_probabilities
/// builds). The optimizer's catalog positions are then link ids.
bool is_per_link_shaped(const HardeningObjective& objective, std::size_t num_links);

/// Expected avoidable downtime in minutes:
///   Sum_i weights[i] * max(0, violations[i] - unavoidable[i]) * period_minutes
/// accumulated in index order (bit-identical for any execution shape). All
/// three spans must have equal size (throws std::invalid_argument).
double expected_downtime_minutes(std::span<const double> violations,
                                 std::span<const double> unavoidable,
                                 std::span<const double> weights,
                                 double period_minutes);

}  // namespace dtr
