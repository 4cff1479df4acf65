#include "scenarios/scenario_set.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/json.h"

namespace dtr {

void ScenarioSet::add(FailureScenario scenario, double weight, std::string name) {
  if (!std::isfinite(weight) || weight < 0.0)
    throw std::invalid_argument("ScenarioSet::add: weight must be finite and >= 0");
  if (name.empty()) name = dtr::to_string(scenario);
  scenarios_.push_back(std::move(scenario));
  weights_.push_back(weight);
  names_.push_back(std::move(name));
}

double ScenarioSet::total_weight() const {
  double total = 0.0;
  for (const double w : weights_) total += w;
  return total;
}

void ScenarioSet::replace_weights(std::vector<double> weights) {
  if (weights.size() != scenarios_.size())
    throw std::invalid_argument("ScenarioSet::replace_weights: size mismatch");
  for (const double w : weights)
    if (!std::isfinite(w) || w < 0.0)
      throw std::invalid_argument(
          "ScenarioSet::replace_weights: weight must be finite and >= 0");
  weights_ = std::move(weights);
}

void ScenarioSet::normalize_weights() {
  const double total = total_weight();
  if (!(total > 0.0))
    throw std::invalid_argument("ScenarioSet::normalize_weights: total weight not > 0");
  for (double& w : weights_) w /= total;
}

ScenarioSet single_link_scenarios(const Graph& g) {
  ScenarioSet set;
  for (LinkId l = 0; l < g.num_links(); ++l) set.add(FailureScenario::link(l));
  return set;
}

ScenarioSet single_node_scenarios(const Graph& g) {
  ScenarioSet set;
  for (NodeId v = 0; v < g.num_nodes(); ++v) set.add(FailureScenario::node(v));
  return set;
}

namespace {

/// C(n, k) saturating at `cap` so the budget comparison never overflows.
std::size_t combinations_capped(std::size_t n, std::size_t k, std::size_t cap) {
  if (k > n) return 0;
  std::size_t count = 1;
  for (std::size_t i = 0; i < k; ++i) {
    // count *= (n - i) / (i + 1), kept exact by multiplying first; saturate
    // before the multiply can overflow.
    if (count > cap) return cap + 1;
    count = count * (n - i) / (i + 1);
  }
  return std::min(count, cap + 1);
}

}  // namespace

ScenarioSet enumerate_k_link_failures(const Graph& g, const KLinkSpec& spec) {
  if (spec.k < 1)
    throw std::invalid_argument("enumerate_k_link_failures: k must be >= 1");
  if (g.num_links() < static_cast<std::size_t>(spec.k))
    throw std::invalid_argument("enumerate_k_link_failures: need >= k links");
  const auto k = static_cast<std::size_t>(spec.k);

  ScenarioSet set;
  if (combinations_capped(g.num_links(), k, spec.budget) <= spec.budget) {
    // Exact enumeration in lexicographic order.
    std::vector<LinkId> combo(k);
    for (std::size_t i = 0; i < k; ++i) combo[i] = static_cast<LinkId>(i);
    while (true) {
      set.add(FailureScenario::compound(combo));
      // Advance the rightmost index that can still move.
      std::size_t i = k;
      while (i > 0) {
        --i;
        if (combo[i] + (k - i) < g.num_links()) break;
        if (i == 0) return set;
      }
      ++combo[i];
      for (std::size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
    }
  }

  Rng rng(spec.seed);
  for (FailureScenario& s : sample_k_link_failures(g, spec.k, spec.budget, rng))
    set.add(std::move(s));
  return set;
}

FailureRates derive_failure_rates(const Graph& g, const RateModel& model) {
  FailureRates rates;
  rates.link.reserve(g.num_links());
  for (LinkId l = 0; l < g.num_links(); ++l) {
    // Both arcs of a link share the propagation delay; read the first.
    const double delay_ms = g.arc(g.link_arcs(l)[0]).prop_delay_ms;
    rates.link.push_back(model.link_base + model.link_per_delay_ms * delay_ms);
  }
  rates.node.assign(g.num_nodes(), model.node_rate);
  return rates;
}

void apply_rate_weights(ScenarioSet& set, const FailureRates& rates) {
  std::vector<double> weights(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    double w = 1.0;
    for_each_failed_element(
        set.scenario(i),
        [&](LinkId l) {
          if (l >= rates.link.size())
            throw std::out_of_range("apply_rate_weights: link id");
          w *= rates.link[l];
        },
        [&](NodeId v) {
          if (v >= rates.node.size())
            throw std::out_of_range("apply_rate_weights: node id");
          w *= rates.node[v];
        });
    weights[i] = w;
  }
  // Weights land in one move after every id validated, so a thrown id error
  // leaves the set untouched.
  set.replace_weights(std::move(weights));
}

double weighted_percentile(std::span<const double> values,
                           std::span<const double> weights, double p) {
  if (values.size() != weights.size())
    throw std::invalid_argument("weighted_percentile: size mismatch");
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("weighted_percentile: p outside [0, 1]");
  if (values.empty()) return 0.0;

  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("weighted_percentile: negative weight");
    total += w;
  }
  if (!(total > 0.0))
    throw std::invalid_argument("weighted_percentile: total weight not > 0");

  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });

  const double target = p * total;
  double cumulative = 0.0;
  for (const std::size_t i : order) {
    cumulative += weights[i];
    if (cumulative >= target) return values[i];
  }
  return values[order.back()];  // p == 1 with float residue
}

std::string_view to_string(FailureScenario::Kind kind) {
  switch (kind) {
    case FailureScenario::Kind::kNone: return "none";
    case FailureScenario::Kind::kLink: return "link";
    case FailureScenario::Kind::kNode: return "node";
    case FailureScenario::Kind::kCompound: return "compound";
  }
  return "?";
}

void write_scenario_set_json(std::ostream& os, const ScenarioSet& set,
                             std::string_view label) {
  JsonWriter json(os);
  json.begin_object();
  json.key("schema").value(kScenarioSchema);
  json.key("label").value(label);
  json.key("count").value(set.size());
  json.key("total_weight").value(set.total_weight());
  json.key("scenarios").begin_array();
  for (std::size_t i = 0; i < set.size(); ++i) {
    const FailureScenario& s = set.scenario(i);
    json.begin_object();
    json.key("name").value(set.name(i));
    json.key("kind").value(to_string(s.kind));
    json.key("links").begin_array();
    for_each_failed_element(
        s, [&](LinkId l) { json.value(l); }, [](NodeId) {});
    json.end_array();
    json.key("nodes").begin_array();
    for_each_failed_element(
        s, [](LinkId) {}, [&](NodeId v) { json.value(v); });
    json.end_array();
    json.key("weight").value(set.weight(i));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

}  // namespace dtr
