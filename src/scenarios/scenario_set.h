#pragma once

/// Scenario-catalog subsystem: named, probability-weighted sets of compound
/// failure scenarios (single elements, k-link combinations, SRLGs) plus the
/// deterministic generators that build them. The catalogs are the currency
/// between workload specs and the evaluator — every availability-style
/// experiment describes WHAT can fail as a ScenarioSet and hands the
/// scenarios/weights to Evaluator::sweep / summarize_scenarios.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "routing/failures.h"
#include "util/rng.h"

namespace dtr {

/// An ordered catalog of failure scenarios with a stable name and a
/// non-negative weight per scenario (probability mass, conduit cut rate, or
/// plain 1.0 when unweighted). Parallel arrays rather than a struct-of-all
/// so the scenario/weight spans feed Evaluator::sweep without copying.
class ScenarioSet {
 public:
  void add(FailureScenario scenario, double weight = 1.0, std::string name = {});

  std::size_t size() const { return scenarios_.size(); }
  bool empty() const { return scenarios_.empty(); }

  std::span<const FailureScenario> scenarios() const { return scenarios_; }
  std::span<const double> weights() const { return weights_; }

  const FailureScenario& scenario(std::size_t i) const { return scenarios_[i]; }
  double weight(std::size_t i) const { return weights_[i]; }
  const std::string& name(std::size_t i) const { return names_[i]; }

  double total_weight() const;

  /// Replaces every weight (same size as the catalog, all finite and
  /// non-negative; throws std::invalid_argument otherwise, leaving the set
  /// untouched).
  /// Scenarios and names are unaffected — reweighting passes use this
  /// instead of rebuilding the catalog.
  void replace_weights(std::vector<double> weights);

  /// Scales every weight so they sum to 1 (a probability distribution over
  /// scenarios). Throws std::invalid_argument when the total is not > 0.
  void normalize_weights();

  bool operator==(const ScenarioSet&) const = default;

 private:
  std::vector<FailureScenario> scenarios_;
  std::vector<double> weights_;
  std::vector<std::string> names_;
};

/// All single-link failures as a catalog (name = "link#i", weight 1).
ScenarioSet single_link_scenarios(const Graph& g);

/// All single-node failures as a catalog (name = "node#v", weight 1).
ScenarioSet single_node_scenarios(const Graph& g);

/// k-link enumeration with budget-capped sampling.
struct KLinkSpec {
  int k = 2;                 ///< simultaneous link failures per scenario
  std::size_t budget = 200;  ///< catalog size cap
  std::uint64_t seed = 1;    ///< sampling stream when the cap binds
};

/// Every k-combination of physical links when there are at most `budget` of
/// them (lexicographic order); otherwise `budget` distinct combinations
/// sampled from Rng(seed) (sample_k_link_failures). Purely sequential, so
/// the catalog is identical for any execution shape; scenario names are the
/// canonical to_string forms.
ScenarioSet enumerate_k_link_failures(const Graph& g, const KLinkSpec& spec);

/// Per-element steady-state failure probabilities, indexed by physical link
/// and by node.
struct FailureRates {
  std::vector<double> link;
  std::vector<double> node;
};

/// The availability model behind derive_failure_rates: a link's failure
/// probability grows with its propagation delay (fiber length is the classic
/// cut-rate driver), nodes fail at a flat rate.
struct RateModel {
  double link_base = 1e-3;         ///< length-independent link probability
  double link_per_delay_ms = 2e-4; ///< added probability per ms of prop delay
  double node_rate = 5e-4;         ///< flat node failure probability
};

FailureRates derive_failure_rates(const Graph& g, const RateModel& model = {});

/// Reweights every scenario to the product of its failed elements'
/// probabilities (independent failures, rare-event approximation: survivor
/// terms are dropped, so a scenario's weight is comparable across catalog
/// sizes). The empty (kNone) scenario keeps weight 1 — the empty product.
/// Throws std::out_of_range when a scenario references an element the rate
/// table doesn't cover.
void apply_rate_weights(ScenarioSet& set, const FailureRates& rates);

/// Weighted percentile of `values`: the smallest value v such that the
/// total weight of entries with value <= v reaches `p` (in [0, 1]) times the
/// total weight. Ties resolve by index order, so the result is deterministic
/// for any execution shape. Returns 0 for empty input; throws
/// std::invalid_argument on size mismatch, negative weights, zero total
/// weight, or p outside [0, 1].
double weighted_percentile(std::span<const double> values,
                           std::span<const double> weights, double p);

/// Writes the catalog as a deterministic `dtr.scenarios.v1` JSON document
/// (schema, label, count, total_weight, then one {name, kind, links, nodes,
/// weight} object per scenario, insertion order).
void write_scenario_set_json(std::ostream& os, const ScenarioSet& set,
                             std::string_view label);

inline constexpr std::string_view kScenarioSchema = "dtr.scenarios.v1";

std::string_view to_string(FailureScenario::Kind kind);

}  // namespace dtr
