#include "scenarios/hardening.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "routing/failures.h"

namespace dtr {

std::string_view to_string(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kExpectedCost: return "expected";
    case AggregationMode::kWeightedPercentile: return "percentile";
    case AggregationMode::kExpectedDowntime: return "downtime";
  }
  return "?";
}

std::optional<AggregationMode> parse_aggregation_mode(std::string_view text) {
  if (text == "expected") return AggregationMode::kExpectedCost;
  if (text == "percentile") return AggregationMode::kWeightedPercentile;
  if (text == "downtime") return AggregationMode::kExpectedDowntime;
  return std::nullopt;
}

void validate_objective(const HardeningObjective& objective, const Graph& g) {
  if (objective.set.empty())
    throw std::invalid_argument("HardeningObjective: empty scenario catalog");
  if (!(objective.percentile >= 0.0 && objective.percentile <= 1.0))
    throw std::invalid_argument("HardeningObjective: percentile outside [0, 1]");
  if (!std::isfinite(objective.period_minutes) || objective.period_minutes <= 0.0)
    throw std::invalid_argument("HardeningObjective: period_minutes must be finite and > 0");
  for (const FailureScenario& s : objective.set.scenarios()) {
    for_each_failed_element(
        s,
        [&](LinkId l) {
          if (l >= g.num_links())
            throw std::invalid_argument("HardeningObjective: scenario link id out of range");
        },
        [&](NodeId v) {
          if (v >= g.num_nodes())
            throw std::invalid_argument("HardeningObjective: scenario node id out of range");
        });
  }
}

HardeningObjective objective_from_link_probabilities(
    const Graph& g, std::span<const double> probabilities) {
  if (probabilities.size() != g.num_links())
    throw std::invalid_argument(
        "objective_from_link_probabilities: probabilities size mismatch");
  HardeningObjective objective;
  objective.mode = AggregationMode::kExpectedCost;
  for (LinkId l = 0; l < g.num_links(); ++l)
    objective.set.add(FailureScenario::link(l), probabilities[l],
                      "link#" + std::to_string(l));
  return objective;
}

bool is_per_link_shaped(const HardeningObjective& objective, std::size_t num_links) {
  if (objective.mode != AggregationMode::kExpectedCost) return false;
  if (objective.set.size() != num_links) return false;
  for (std::size_t i = 0; i < num_links; ++i) {
    const FailureScenario& s = objective.set.scenario(i);
    if (s.kind != FailureScenario::Kind::kLink || s.id != i) return false;
  }
  return true;
}

double expected_downtime_minutes(std::span<const double> violations,
                                 std::span<const double> unavoidable,
                                 std::span<const double> weights,
                                 double period_minutes) {
  if (violations.size() != unavoidable.size() || violations.size() != weights.size())
    throw std::invalid_argument("expected_downtime_minutes: span size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < violations.size(); ++i)
    sum += weights[i] * std::max(0.0, violations[i] - unavoidable[i]) * period_minutes;
  return sum;
}

}  // namespace dtr
