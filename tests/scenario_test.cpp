/// Scenario-catalog subsystem: generator determinism, SRLG parse round-trip,
/// weighted aggregation, and the PR's acceptance contract — compound / SRLG
/// scenarios evaluate bit-identically on the incremental and full paths
/// across randomized topologies and 1-vs-8 worker threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "experiments/campaign.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "scenarios/scenario_eval.h"
#include "scenarios/scenario_set.h"
#include "scenarios/srlg.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using experiments::ScenarioSpec;
using test::expect_results_identical;
using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

std::string catalog_json(const ScenarioSet& set) {
  std::ostringstream os;
  write_scenario_set_json(os, set, "test");
  return os.str();
}

void expect_profile_bytes_identical(const FailureProfile& a, const FailureProfile& b) {
  ASSERT_EQ(a.violations.size(), b.violations.size());
  const auto bytes_equal = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  EXPECT_TRUE(bytes_equal(a.violations, b.violations));
  EXPECT_TRUE(bytes_equal(a.lambda, b.lambda));
  EXPECT_TRUE(bytes_equal(a.phi, b.phi));
  EXPECT_EQ(a.phi_uncap, b.phi_uncap);
}

// ------------------------------------------------------------ representation

TEST(ScenarioTest, CompoundCanonicalForm) {
  const FailureScenario a = FailureScenario::compound({5, 1, 5, 3}, {7, 2, 7});
  EXPECT_EQ(a.kind, FailureScenario::Kind::kCompound);
  EXPECT_EQ(a.links, (std::vector<LinkId>{1, 3, 5}));
  EXPECT_EQ(a.nodes, (std::vector<NodeId>{2, 7}));
  // Canonicalization makes equality set equality.
  EXPECT_EQ(a, FailureScenario::compound({3, 5, 1}, {2, 7}));
  EXPECT_NE(a, FailureScenario::compound({3, 5, 1}, {2}));
  EXPECT_EQ(to_string(a), "links#1+3+5|nodes#2+7");
  EXPECT_EQ(to_string(FailureScenario::compound({4, 2})), "links#2+4");
  EXPECT_EQ(to_string(FailureScenario::compound({}, {9})), "nodes#9");
  EXPECT_EQ(to_string(FailureScenario::compound({})), "compound#empty");
}

TEST(ScenarioTest, CompoundAliveMaskKillsLinksAndNodeArcs) {
  const Graph g = test::make_ring(6);
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::compound({0, 3}, {5}), mask);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    const bool should_die =
        arc.link == 0 || arc.link == 3 || arc.src == 5 || arc.dst == 5;
    EXPECT_EQ(mask[a] == 0, should_die) << "arc " << a;
  }
  EXPECT_THROW(
      build_alive_mask(g, FailureScenario::compound({99}), mask), std::out_of_range);
  EXPECT_THROW(
      build_alive_mask(g, FailureScenario::compound({}, {99}), mask), std::out_of_range);
}

// ------------------------------------------------------------ generators

TEST(ScenarioTest, KLinkEnumerationExactUnderBudget) {
  const Graph g = test::make_ring(6);  // 6 links, C(6,2) = 15
  const ScenarioSet set = enumerate_k_link_failures(g, {2, 20, 1});
  ASSERT_EQ(set.size(), 15u);
  // Lexicographic order, every pair exactly once.
  std::size_t i = 0;
  for (LinkId a = 0; a < 6; ++a) {
    for (LinkId b = a + 1; b < 6; ++b, ++i) {
      EXPECT_EQ(set.scenario(i), FailureScenario::compound({a, b}));
      EXPECT_EQ(set.weight(i), 1.0);
    }
  }
  // k = 3 enumeration: C(6,3) = 20.
  EXPECT_EQ(enumerate_k_link_failures(g, {3, 20, 1}).size(), 20u);
  EXPECT_EQ(enumerate_k_link_failures(g, {6, 20, 1}).size(), 1u);
}

TEST(ScenarioTest, KLinkSamplingDeterministicAndDistinct) {
  const TestInstance inst = make_test_instance(14, 5.0, 3);
  const KLinkSpec spec{3, 25, 77};  // C(35,3) >> 25, so the budget binds
  const ScenarioSet a = enumerate_k_link_failures(inst.graph, spec);
  const ScenarioSet b = enumerate_k_link_failures(inst.graph, spec);
  ASSERT_EQ(a.size(), 25u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog_json(a), catalog_json(b));  // byte-stable catalog
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.scenario(i).links.size(), 3u);
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_FALSE(a.scenario(i) == a.scenario(j));
  }
  // A different seed yields a different catalog.
  EXPECT_FALSE(a == enumerate_k_link_failures(inst.graph, {3, 25, 78}));
}

TEST(ScenarioTest, TwoLinkSamplerMatchesHistoricalStream) {
  // The pre-catalog sampler drew (a, b) per attempt, rejected a == b,
  // canonicalized by swap, and deduplicated against the accepted list. The
  // k = 2 sampler must replay that exact RNG stream.
  const TestInstance inst = make_test_instance(10, 4.0, 5);
  const std::size_t count = 15;

  Rng legacy_rng(123);
  std::vector<FailureScenario> legacy;
  std::size_t guard = 64 * count + 64;
  while (legacy.size() < count) {
    ASSERT_GT(guard--, 0u);
    auto a = static_cast<LinkId>(legacy_rng.uniform_index(inst.graph.num_links()));
    auto b = static_cast<LinkId>(legacy_rng.uniform_index(inst.graph.num_links()));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    const FailureScenario s = FailureScenario::compound({a, b});
    if (std::find(legacy.begin(), legacy.end(), s) != legacy.end()) continue;
    legacy.push_back(s);
  }

  Rng sampler_rng(123);
  const auto sampled = sample_k_link_failures(inst.graph, 2, count, sampler_rng);
  EXPECT_EQ(sampled, legacy);
  // Both generators consumed the same number of draws.
  EXPECT_EQ(legacy_rng.uniform_index(1u << 30), sampler_rng.uniform_index(1u << 30));
}

// ------------------------------------------------------------ SRLG catalogs

TEST(ScenarioTest, SrlgRoundTrip) {
  std::vector<SrlgGroup> groups;
  groups.push_back({"conduit-a", {3, 7, 12}, {}, 0.01});
  groups.push_back({"metro-ring", {1, 2}, {4, 9}, 1.0 / 3.0});
  groups.push_back({"srlg-2", {}, {5}, 1.0});

  std::ostringstream os;
  write_srlg(os, groups);
  std::istringstream in(os.str());
  EXPECT_EQ(parse_srlg(in), groups);

  // Names the format cannot represent are refused instead of corrupted:
  // '#' would parse as a comment, an empty name as a malformed line.
  std::ostringstream sink;
  const std::vector<SrlgGroup> hash{{"conduit#7", {1}, {}, 1.0}};
  EXPECT_THROW(write_srlg(sink, hash), std::invalid_argument);
  const std::vector<SrlgGroup> unnamed{{"", {1}, {}, 1.0}};
  EXPECT_THROW(write_srlg(sink, unnamed), std::invalid_argument);
}

TEST(ScenarioTest, SrlgParseValidation) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_srlg(in);
  };
  // Defaults: generated name, weight 1.
  const auto groups = parse("# catalog\n[srlg]\nlinks = 2 1\n");
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].name, "srlg-0");
  EXPECT_EQ(groups[0].weight, 1.0);
  EXPECT_EQ(groups[0].links, (std::vector<LinkId>{2, 1}));  // parse keeps order

  EXPECT_THROW(parse("links = 1\n"), std::runtime_error);          // key before section
  EXPECT_THROW(parse("[srlg]\nbogus = 1\n"), std::runtime_error);  // unknown key
  EXPECT_THROW(parse("[srlg]\nlinks = 1x\n"), std::runtime_error); // trailing garbage
  EXPECT_THROW(parse("[srlg]\nlinks = -3\n"), std::runtime_error); // negative id
  EXPECT_THROW(parse("[srlg]\nweight = -1\nlinks = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[srlg]\nweight = nan\nlinks = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[srlg]\nweight = inf\nlinks = 1\n"), std::runtime_error);
  EXPECT_THROW(parse("[srlg]\nname = empty\n"), std::runtime_error);  // no elements
}

TEST(ScenarioTest, ScenarioSetRejectsNonFiniteWeights) {
  ScenarioSet set;
  set.add(FailureScenario::link(0), 0.5);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0}) {
    EXPECT_THROW(set.add(FailureScenario::link(1), bad), std::invalid_argument) << bad;
    EXPECT_THROW(set.replace_weights({bad}), std::invalid_argument) << bad;
  }
  // Rejected calls leave the set untouched.
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.weight(0), 0.5);
  set.replace_weights({0.0});
  EXPECT_EQ(set.weight(0), 0.0);
}

TEST(ScenarioTest, GeoSrlgsDeterministicAndValid) {
  const TestInstance inst = make_test_instance(20, 4.0, 11);
  const GeoSrlgParams params{3, 2, 0.5};
  const auto groups = synthesize_geo_srlgs(inst.graph, params);
  EXPECT_EQ(groups, synthesize_geo_srlgs(inst.graph, params));
  ASSERT_FALSE(groups.empty());
  std::size_t grouped_links = 0;
  for (const SrlgGroup& group : groups) {
    EXPECT_GE(group.links.size(), 2u);
    EXPECT_EQ(group.weight, 0.5);
    EXPECT_TRUE(std::is_sorted(group.links.begin(), group.links.end()));
    for (const LinkId l : group.links) EXPECT_LT(l, inst.graph.num_links());
    grouped_links += group.links.size();
  }
  EXPECT_LE(grouped_links, inst.graph.num_links());

  const ScenarioSet set = srlg_scenario_set(inst.graph, groups);
  ASSERT_EQ(set.size(), groups.size());
  EXPECT_EQ(set.name(0), groups[0].name);
  EXPECT_EQ(set.weight(0), 0.5);

  // Bad ids are rejected with the group named.
  const std::vector<SrlgGroup> bad{{"broken", {static_cast<LinkId>(
                                                  inst.graph.num_links())},
                                    {},
                                    1.0}};
  EXPECT_THROW(srlg_scenario_set(inst.graph, bad), std::out_of_range);
}

// ------------------------------------------------------------ weights

TEST(ScenarioTest, RateWeightsAreElementProducts) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 2.0);
  g.add_link(1, 2, 100.0, 5.0);
  g.add_link(2, 0, 100.0, 1.0);
  const RateModel model{0.001, 0.0002, 0.0005};
  const FailureRates rates = derive_failure_rates(g, model);
  ASSERT_EQ(rates.link.size(), 3u);
  EXPECT_DOUBLE_EQ(rates.link[0], 0.001 + 0.0002 * 2.0);
  EXPECT_DOUBLE_EQ(rates.link[1], 0.001 + 0.0002 * 5.0);
  EXPECT_DOUBLE_EQ(rates.node[2], 0.0005);

  ScenarioSet set;
  set.add(FailureScenario::none());
  set.add(FailureScenario::link(1));
  set.add(FailureScenario::compound({0, 2}));
  set.add(FailureScenario::compound({0, 1}, {2}), 1.0, "mixed");
  apply_rate_weights(set, rates);
  EXPECT_DOUBLE_EQ(set.weight(0), 1.0);  // empty product
  EXPECT_DOUBLE_EQ(set.weight(1), rates.link[1]);
  EXPECT_DOUBLE_EQ(set.weight(2), rates.link[0] * rates.link[2]);
  EXPECT_DOUBLE_EQ(set.weight(3), rates.link[0] * rates.link[1] * rates.node[2]);
  EXPECT_EQ(set.name(3), "mixed");  // names survive reweighting

  ScenarioSet out_of_range;
  out_of_range.add(FailureScenario::link(7));
  EXPECT_THROW(apply_rate_weights(out_of_range, rates), std::out_of_range);

  set.normalize_weights();
  EXPECT_NEAR(set.total_weight(), 1.0, 1e-12);
}

TEST(ScenarioTest, WeightedPercentileHandChecks) {
  const std::vector<double> values{10.0, 30.0, 20.0, 40.0};
  const std::vector<double> weights{1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(weighted_percentile(values, weights, 0.0), 10.0);
  EXPECT_EQ(weighted_percentile(values, weights, 0.25), 10.0);
  EXPECT_EQ(weighted_percentile(values, weights, 0.5), 20.0);
  EXPECT_EQ(weighted_percentile(values, weights, 0.75), 30.0);
  EXPECT_EQ(weighted_percentile(values, weights, 1.0), 40.0);

  // Skewed weights pull the percentile toward the heavy value.
  const std::vector<double> skew{0.97, 0.01, 0.01, 0.01};
  EXPECT_EQ(weighted_percentile(values, skew, 0.5), 10.0);
  EXPECT_EQ(weighted_percentile(values, skew, 0.99), 30.0);
  EXPECT_EQ(weighted_percentile(values, skew, 1.0), 40.0);

  EXPECT_EQ(weighted_percentile({}, {}, 0.5), 0.0);
  EXPECT_THROW(weighted_percentile(values, skew, 1.5), std::invalid_argument);
  const std::vector<double> one{1.0}, minus{-1.0}, zero{0.0};
  EXPECT_THROW(weighted_percentile(values, one, 0.5), std::invalid_argument);
  EXPECT_THROW(weighted_percentile(one, minus, 0.5), std::invalid_argument);
  EXPECT_THROW(weighted_percentile(one, zero, 0.5), std::invalid_argument);
}

TEST(ScenarioTest, SummarizeScenariosMatchesManualReduction) {
  const TestInstance inst = make_test_instance(10, 4.0, 21);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const WeightSetting w = random_weights(inst.graph, 25, 31);

  ScenarioSet set = enumerate_k_link_failures(inst.graph, {2, 12, 9});
  apply_rate_weights(set, derive_failure_rates(inst.graph));
  const ScenarioSummary summary = summarize_scenarios(ev, w, set, 0.9);

  const std::vector<EvalResult> results = ev.evaluate_failures(w, set.scenarios());
  double total = 0.0, exp_lambda = 0.0, exp_viol = 0.0, worst_phi = 0.0;
  std::vector<double> viol;
  for (std::size_t i = 0; i < results.size(); ++i) {
    total += set.weight(i);
    exp_lambda += set.weight(i) * results[i].lambda;
    exp_viol += set.weight(i) * results[i].sla_violations;
    worst_phi = std::max(worst_phi, results[i].phi);
    viol.push_back(static_cast<double>(results[i].sla_violations));
  }
  EXPECT_EQ(summary.count, set.size());
  EXPECT_EQ(summary.total_weight, total);
  EXPECT_EQ(summary.expected_lambda, exp_lambda / total);
  EXPECT_EQ(summary.expected_violations, exp_viol / total);
  EXPECT_EQ(summary.worst_phi, worst_phi);
  EXPECT_EQ(summary.percentile_violations,
            weighted_percentile(viol, set.weights(), 0.9));

  // The weighted Evaluator::sweep accumulates the same weight * cost terms
  // in the same scenario order, so its sum matches the manual reduction
  // bitwise.
  const SweepResult sweep =
      ev.sweep(w, set.scenarios(), {.scenario_weights = set.weights()});
  EXPECT_EQ(sweep.lambda, exp_lambda);
}

// ------------------------------------------------------------ evaluator identity

TEST(ScenarioTest, CompoundMatchesEquivalentKindsBitwise) {
  const TestInstance inst = make_test_instance(12, 4.0, 41);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const WeightSetting w = random_weights(inst.graph, 30, 43);

  // compound({l}) == link(l), compound({},{v}) == node(v) — including
  // kFull detail.
  expect_results_identical(
      ev.evaluate(w, FailureScenario::compound({3}), EvalDetail::kFull),
      ev.evaluate(w, FailureScenario::link(3), EvalDetail::kFull));
  expect_results_identical(
      ev.evaluate(w, FailureScenario::compound({}, {4}), EvalDetail::kFull),
      ev.evaluate(w, FailureScenario::node(4), EvalDetail::kFull));
}

TEST(ScenarioTest, IncrementalMatchesFullOnCompoundCatalogs) {
  // The acceptance contract: compound / SRLG scenarios produce bit-identical
  // FailureProfiles on the incremental and full paths, across randomized
  // topologies, weight settings, and 1 vs 8 worker threads.
  struct Case {
    int nodes;
    double degree;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{10, 4.0, 51}, Case{14, 5.0, 63}, Case{18, 3.0, 85}}) {
    const TestInstance inst = make_test_instance(c.nodes, c.degree, c.seed);
    const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                                {.incremental = true});
    const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});

    // Mixed catalog: sampled 2- and 3-link compounds, geographic SRLGs,
    // node-failing compounds (full-path fallback), and the single kinds.
    std::vector<FailureScenario> scenarios;
    Rng rng(c.seed + 7);
    for (auto& s : sample_k_link_failures(inst.graph, 2, 10, rng))
      scenarios.push_back(std::move(s));
    for (auto& s : sample_k_link_failures(inst.graph, 3, 6, rng))
      scenarios.push_back(std::move(s));
    const ScenarioSet geo = srlg_scenario_set(
        inst.graph, synthesize_geo_srlgs(inst.graph, {3}));
    for (const FailureScenario& s : geo.scenarios()) scenarios.push_back(s);
    scenarios.push_back(FailureScenario::none());
    scenarios.push_back(FailureScenario::link(0));
    scenarios.push_back(FailureScenario::compound({0, 1}));
    scenarios.push_back(FailureScenario::compound({0, 2}, {1}));
    scenarios.push_back(FailureScenario::compound({}, {0, 3}));

    ThreadPool one(1);
    ThreadPool eight(8);
    for (const std::uint64_t wseed : {c.seed + 1, c.seed + 2}) {
      const WeightSetting w = random_weights(inst.graph, 30, wseed);
      const FailureProfile reference = profile_failures(full, w, scenarios, &one);
      expect_profile_bytes_identical(reference,
                                     profile_failures(incremental, w, scenarios, &one));
      expect_profile_bytes_identical(
          reference, profile_failures(incremental, w, scenarios, &eight));
      expect_profile_bytes_identical(reference,
                                     profile_failures(full, w, scenarios, &eight));
    }
  }
}

TEST(ScenarioTest, CompoundUnavoidableViolationsHandlesNodeSkips) {
  const TestInstance inst = make_test_instance(10, 4.0, 91);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  // compound({},{v}) and node(v) are the same scenario; the floor metric
  // must agree (multi-skip plumbing through metrics.cpp).
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(unavoidable_violations(ev, FailureScenario::compound({}, {v})),
              unavoidable_violations(ev, FailureScenario::node(v)));
  }
}

// ------------------------------------------------------------ campaign surface

TEST(ScenarioTest, CampaignSpecParsesScenarioDirectives) {
  std::istringstream spec(R"(name = scn
effort = smoke
[cell]
id = a
topology = rand
nodes = 10
scenario_set = k_link
k_link = 3
scenario_budget = 17
percentile = 0.9
rate_weights = 1
[cell]
id = b
scenario_set = srlg_file
srlg_file = catalogs/backbone.srlg
[cell]
id = c
scenario_set = geo_srlg
geo_grid = 5
)");
  const experiments::Campaign campaign = experiments::parse_campaign_spec(spec);
  ASSERT_EQ(campaign.cells.size(), 3u);
  EXPECT_EQ(campaign.cells[0].scenario.kind, ScenarioSpec::Kind::kKLink);
  EXPECT_EQ(campaign.cells[0].scenario.k, 3);
  EXPECT_EQ(campaign.cells[0].scenario.budget, 17u);
  EXPECT_EQ(campaign.cells[0].scenario.percentile, 0.9);
  EXPECT_TRUE(campaign.cells[0].scenario.rate_weights);
  EXPECT_EQ(campaign.cells[1].scenario.kind, ScenarioSpec::Kind::kSrlgFile);
  EXPECT_EQ(campaign.cells[1].scenario.srlg_file, "catalogs/backbone.srlg");
  EXPECT_EQ(campaign.cells[2].scenario.kind, ScenarioSpec::Kind::kGeoSrlg);
  EXPECT_EQ(campaign.cells[2].scenario.geo_grid, 5);

  const auto parse_line = [](const std::string& line) {
    std::istringstream in("[cell]\n" + line + "\n");
    return experiments::parse_campaign_spec(in);
  };
  EXPECT_THROW(parse_line("scenario_set = bogus"), std::runtime_error);
  EXPECT_THROW(parse_line("k_link = 0"), std::runtime_error);
  EXPECT_THROW(parse_line("percentile = 1.5"), std::runtime_error);
  EXPECT_THROW(parse_line("scenario_budget = 0"), std::runtime_error);
}

TEST(ScenarioTest, BuildScenarioSetKinds) {
  const TestInstance inst = make_test_instance(12, 4.0, 19);
  ScenarioSpec spec;
  EXPECT_TRUE(experiments::build_scenario_set(spec, inst.graph, 1).empty());

  spec.kind = ScenarioSpec::Kind::kAllLinks;
  EXPECT_EQ(experiments::build_scenario_set(spec, inst.graph, 1).size(),
            inst.graph.num_links());
  spec.kind = ScenarioSpec::Kind::kAllNodes;
  EXPECT_EQ(experiments::build_scenario_set(spec, inst.graph, 1).size(),
            inst.graph.num_nodes());

  spec.kind = ScenarioSpec::Kind::kKLink;
  spec.k = 2;
  spec.budget = 13;
  const ScenarioSet k2 = experiments::build_scenario_set(spec, inst.graph, 5);
  EXPECT_EQ(k2.size(), 13u);
  EXPECT_EQ(k2, experiments::build_scenario_set(spec, inst.graph, 5));

  spec.rate_weights = true;
  const ScenarioSet weighted = experiments::build_scenario_set(spec, inst.graph, 5);
  EXPECT_EQ(weighted.scenarios().size(), k2.scenarios().size());
  EXPECT_LT(weighted.total_weight(), k2.total_weight());  // probabilities << 1

  spec.kind = ScenarioSpec::Kind::kSrlgFile;
  spec.srlg_file = "/nonexistent/missing.srlg";
  EXPECT_THROW(experiments::build_scenario_set(spec, inst.graph, 1),
               std::runtime_error);
}

}  // namespace
}  // namespace dtr
