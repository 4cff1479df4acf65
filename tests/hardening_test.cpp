/// Hardening-objective API: aggregation-mode parsing, the expected-downtime
/// arithmetic, per-link-shape detection (objective_from_link_probabilities
/// builds the per-link shape and runs the per-link pipeline), the
/// weighted/violation-abort sweep paths, catalog-criticality sampling
/// determinism (1 vs 8 threads, bytes-equal), and the acceptance contract
/// that per-link and catalog-mode runs are bit-identical for any thread
/// count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "core/acceptable_store.h"
#include "core/criticality.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "experiments/campaign.h"
#include "routing/evaluator.h"
#include "scenarios/hardening.h"
#include "scenarios/scenario_eval.h"
#include "scenarios/scenario_set.h"
#include "scenarios/srlg.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

void expect_bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

// ------------------------------------------------------------ aggregation math

TEST(HardeningTest, AggregationModeRoundTrip) {
  for (const AggregationMode mode :
       {AggregationMode::kExpectedCost, AggregationMode::kWeightedPercentile,
        AggregationMode::kExpectedDowntime}) {
    const auto parsed = parse_aggregation_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(to_string(AggregationMode::kExpectedDowntime), "downtime");
  EXPECT_FALSE(parse_aggregation_mode("bogus").has_value());
  EXPECT_FALSE(parse_aggregation_mode("").has_value());
}

TEST(HardeningTest, ExpectedDowntimeHandComputed) {
  // Three scenarios, one-day period (1440 minutes):
  //   s0: 5 violations, 2 unavoidable, p = 0.01 -> 0.01 * 3 * 1440 = 43.2
  //   s1: 1 violation,  1 unavoidable, p = 0.50 -> 0 (nothing avoidable)
  //   s2: 0 violations, 0 unavoidable, p = 0.49 -> 0
  const std::vector<double> violations{5.0, 1.0, 0.0};
  const std::vector<double> unavoidable{2.0, 1.0, 0.0};
  const std::vector<double> weights{0.01, 0.5, 0.49};
  EXPECT_DOUBLE_EQ(expected_downtime_minutes(violations, unavoidable, weights, 1440.0),
                   43.2);
  // The max(0, .) clamp: an unavoidable count above the observed one (possible
  // only with inconsistent inputs) contributes zero, not negative downtime.
  const std::vector<double> one_v{1.0}, three{3.0}, unit{1.0};
  EXPECT_DOUBLE_EQ(expected_downtime_minutes(one_v, three, unit, 60.0), 0.0);
  // All-avoidable sanity: weights scale linearly with the period.
  const std::vector<double> two_v{2.0}, zero{0.0}, quarter{0.25};
  EXPECT_DOUBLE_EQ(expected_downtime_minutes(two_v, zero, quarter, 100.0), 50.0);

  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(expected_downtime_minutes(two, unavoidable, weights, 60.0),
               std::invalid_argument);
  EXPECT_THROW(expected_downtime_minutes(violations, two, weights, 60.0),
               std::invalid_argument);
  EXPECT_THROW(expected_downtime_minutes(violations, unavoidable, two, 60.0),
               std::invalid_argument);
}

TEST(HardeningTest, ValidateObjectiveRejectsBadInputs) {
  const Graph g = test::make_ring(5);

  HardeningObjective empty;
  EXPECT_THROW(validate_objective(empty, g), std::invalid_argument);

  HardeningObjective bad_link;
  bad_link.set.add(FailureScenario::link(99));
  EXPECT_THROW(validate_objective(bad_link, g), std::invalid_argument);

  HardeningObjective bad_percentile;
  bad_percentile.set.add(FailureScenario::link(0));
  bad_percentile.mode = AggregationMode::kWeightedPercentile;
  bad_percentile.percentile = 1.5;
  EXPECT_THROW(validate_objective(bad_percentile, g), std::invalid_argument);

  HardeningObjective bad_period;
  bad_period.set.add(FailureScenario::link(0));
  bad_period.mode = AggregationMode::kExpectedDowntime;
  bad_period.period_minutes = 0.0;
  EXPECT_THROW(validate_objective(bad_period, g), std::invalid_argument);

  // Non-finite values fail every `x < 0` / `x > 1` comparison, so each
  // check must reject them explicitly.
  HardeningObjective nan_percentile = bad_percentile;
  nan_percentile.percentile = std::nan("");
  EXPECT_THROW(validate_objective(nan_percentile, g), std::invalid_argument);
  for (const double period : {std::nan(""), HUGE_VAL}) {
    HardeningObjective non_finite_period = bad_period;
    non_finite_period.period_minutes = period;
    EXPECT_THROW(validate_objective(non_finite_period, g), std::invalid_argument);
  }

  HardeningObjective ok;
  ok.set.add(FailureScenario::compound({0, 2}, {1}));
  ok.mode = AggregationMode::kExpectedDowntime;
  EXPECT_NO_THROW(validate_objective(ok, g));
}

// ------------------------------------------------------------ per-link shape

TEST(HardeningTest, PerLinkShapeDetection) {
  const Graph g = test::make_ring(4);
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
  const HardeningObjective objective = objective_from_link_probabilities(g, probs);
  ASSERT_EQ(objective.set.size(), g.num_links());
  EXPECT_EQ(objective.mode, AggregationMode::kExpectedCost);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    EXPECT_EQ(objective.set.scenario(l), FailureScenario::link(l));
    EXPECT_EQ(objective.set.weight(l), probs[l]);
  }

  EXPECT_TRUE(is_per_link_shaped(objective, g.num_links()));

  // Anything that is NOT exactly the per-link single-failure set in link
  // order, under expected cost, runs the catalog path.
  HardeningObjective percentile = objective;
  percentile.mode = AggregationMode::kWeightedPercentile;
  EXPECT_FALSE(is_per_link_shaped(percentile, g.num_links()));

  HardeningObjective shuffled;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const LinkId rev = static_cast<LinkId>(g.num_links() - 1 - l);
    shuffled.set.add(FailureScenario::link(rev), probs[rev]);
  }
  EXPECT_FALSE(is_per_link_shaped(shuffled, g.num_links()));

  HardeningObjective compound = objective;
  compound.set.add(FailureScenario::compound({0, 1}));
  EXPECT_FALSE(is_per_link_shaped(compound, g.num_links()));

  EXPECT_FALSE(is_per_link_shaped(objective, g.num_links() + 1));

  // Wrong-size probability vectors are refused up front.
  EXPECT_THROW(objective_from_link_probabilities(g, std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
}

// ------------------------------------------------------------ weighted sweep

TEST(HardeningTest, SweepAccumulatesViolationsAndAbortsOnThem) {
  const TestInstance inst = make_test_instance(10, 4.0, 47, 0.7);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const WeightSetting w = random_weights(inst.graph, 30, 49);

  ScenarioSet set = enumerate_k_link_failures(inst.graph, {2, 10, 3});
  apply_rate_weights(set, derive_failure_rates(inst.graph));

  // Manual reduction in catalog order — the sweep must match bitwise.
  const std::vector<EvalResult> results = ev.evaluate_failures(w, set.scenarios());
  double viol = 0.0, phi = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    viol += set.weight(i) * results[i].sla_violations;
    phi += set.weight(i) * results[i].phi;
  }
  ASSERT_GT(viol, 0.0) << "fixture must produce violations for the abort test";

  const SweepResult full =
      ev.sweep(w, set.scenarios(), {.scenario_weights = set.weights()});
  EXPECT_EQ(full.violations, viol);
  EXPECT_EQ(full.phi, phi);
  EXPECT_FALSE(full.aborted);
  EXPECT_EQ(full.scenarios_evaluated, set.size());

  // abort_on_violations reinterprets the bound as (violations, phi): a
  // zero bound aborts immediately, a just-above-total bound never does.
  const CostPair tight{0.0, 0.0};
  const SweepResult aborted = ev.sweep(
      w, set.scenarios(),
      {.abort_bound = &tight, .scenario_weights = set.weights(),
       .abort_on_violations = true});
  EXPECT_TRUE(aborted.aborted);
  EXPECT_LT(aborted.scenarios_evaluated, set.size());

  const CostPair loose{viol + 1.0, phi + 1.0};
  const SweepResult complete = ev.sweep(
      w, set.scenarios(),
      {.abort_bound = &loose, .scenario_weights = set.weights(),
       .abort_on_violations = true});
  EXPECT_FALSE(complete.aborted);
  EXPECT_EQ(complete.violations, viol);

  // Parallel rounds accumulate in scenario order: bit-identical sums.
  ThreadPool eight(8);
  const SweepResult parallel = ev.sweep(
      w, set.scenarios(),
      {.scenario_weights = set.weights(), .pool = &eight});
  EXPECT_EQ(parallel.violations, full.violations);
  EXPECT_EQ(parallel.lambda, full.lambda);
  EXPECT_EQ(parallel.phi, full.phi);
}

TEST(HardeningTest, SummarizeScenariosReportsDowntime) {
  const TestInstance inst = make_test_instance(10, 4.0, 59, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const WeightSetting w = random_weights(inst.graph, 30, 61);
  ScenarioSet set = enumerate_k_link_failures(inst.graph, {2, 9, 7});
  apply_rate_weights(set, derive_failure_rates(inst.graph));

  const double period = 1440.0;
  const ScenarioSummary summary = summarize_scenarios(ev, w, set, 0.95, nullptr, period);
  EXPECT_EQ(summary.period_minutes, period);

  const std::vector<EvalResult> results = ev.evaluate_failures(w, set.scenarios());
  std::vector<double> violations;
  for (const EvalResult& r : results)
    violations.push_back(static_cast<double>(r.sla_violations));
  const std::vector<double> unavoidable =
      unavoidable_violation_profile(ev, set.scenarios());
  EXPECT_EQ(summary.expected_downtime_min,
            expected_downtime_minutes(violations, unavoidable, set.weights(), period));

  EXPECT_THROW(summarize_scenarios(ev, w, set, 0.95, nullptr, 0.0),
               std::invalid_argument);
}

// ------------------------------------------------ catalog criticality (1b)

TEST(HardeningTest, CatalogTopUpDeterministicAcrossThreads) {
  const TestInstance inst = make_test_instance(12, 4.0, 67, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);

  // Acceptable-routing pool: a handful of random settings with their normal
  // costs, like the Phase 1 store would hold.
  std::vector<AcceptableStore::Entry> storage;
  for (std::uint64_t s = 0; s < 6; ++s) {
    AcceptableStore::Entry entry;
    entry.setting = random_weights(inst.graph, 30, 70 + s);
    entry.cost = ev.evaluate(entry.setting).cost();
    storage.push_back(std::move(entry));
  }
  std::vector<const AcceptableStore::Entry*> entries;
  for (const auto& entry : storage) entries.push_back(&entry);

  // Compound catalog: sampled 2-link failures plus geographic SRLGs.
  ScenarioSet set;
  Rng catalog_rng(71);
  for (auto& s : sample_k_link_failures(inst.graph, 2, 5, catalog_rng))
    set.add(std::move(s));
  const ScenarioSet geo =
      srlg_scenario_set(inst.graph, synthesize_geo_srlgs(inst.graph, {3}));
  for (const FailureScenario& s : geo.scenarios()) set.add(s);
  ASSERT_GE(set.size(), 4u);

  // The collector indexes catalog positions.
  const CriticalityParams params{};
  const int wmax = 30;
  const double b1 = inst.params.sla.b1;
  const long budget = 400;
  ThreadPool one(1);
  ThreadPool eight(8);

  CriticalityCollector seq_collector(set.size(), wmax, b1, params, 91);
  Rng rng_seq(91);
  const TopUpCounts seq_samples =
      top_up_criticality_samples(ev, seq_collector, set.scenarios(), entries,
                                 SamplingMode::kExactFailure, wmax, budget, rng_seq, &one);
  CriticalityCollector par_collector(set.size(), wmax, b1, params, 91);
  Rng rng_par(91);
  const TopUpCounts par_samples =
      top_up_criticality_samples(ev, par_collector, set.scenarios(), entries,
                                 SamplingMode::kExactFailure, wmax, budget, rng_par, &eight);

  EXPECT_GT(seq_samples.drawn, 0);
  EXPECT_EQ(seq_samples.drawn, par_samples.drawn);
  EXPECT_EQ(seq_samples.evaluated, par_samples.evaluated);
  EXPECT_EQ(seq_collector.converged(), par_collector.converged());
  const CriticalityEstimates sequential = seq_collector.estimates();
  const CriticalityEstimates parallel = par_collector.estimates();
  expect_bytes_equal(sequential.rho_lambda, parallel.rho_lambda);
  expect_bytes_equal(sequential.rho_phi, parallel.rho_phi);
  expect_bytes_equal(sequential.mean_lambda, parallel.mean_lambda);
  expect_bytes_equal(sequential.mean_phi, parallel.mean_phi);
  expect_bytes_equal(sequential.tail_lambda, parallel.tail_lambda);
  expect_bytes_equal(sequential.tail_phi, parallel.tail_phi);

  // Both RNGs consumed identical draw sequences.
  EXPECT_EQ(rng_seq.uniform_index(1u << 30), rng_par.uniform_index(1u << 30));

  // A catalog that does not match the collector, an empty entry pool, and
  // emulated sampling over compound scenarios are all refused.
  EXPECT_THROW(top_up_criticality_samples(ev, seq_collector, {}, entries,
                                          SamplingMode::kExactFailure, wmax, budget, rng_seq),
               std::invalid_argument);
  EXPECT_THROW(top_up_criticality_samples(ev, seq_collector, set.scenarios(), {},
                                          SamplingMode::kExactFailure, wmax, budget, rng_seq),
               std::invalid_argument);
  EXPECT_THROW(top_up_criticality_samples(ev, seq_collector, set.scenarios(), entries,
                                          SamplingMode::kEmulatedWeights, wmax, budget, rng_seq),
               std::invalid_argument);
}

// ------------------------------------------------------------ optimizer shim

OptimizerConfig smoke_config(std::uint64_t seed) {
  OptimizerConfig c = default_optimizer_config(Effort::kSmoke, seed);
  c.wmax = 60;
  return c;
}

void expect_optimize_results_identical(const OptimizeResult& a, const OptimizeResult& b) {
  EXPECT_TRUE(a.regular == b.regular);
  EXPECT_TRUE(a.robust == b.robust);
  EXPECT_EQ(a.regular_cost.lambda, b.regular_cost.lambda);
  EXPECT_EQ(a.regular_cost.phi, b.regular_cost.phi);
  EXPECT_EQ(a.robust_normal_cost.lambda, b.robust_normal_cost.lambda);
  EXPECT_EQ(a.robust_normal_cost.phi, b.robust_normal_cost.phi);
  EXPECT_EQ(a.robust_kfail.lambda, b.robust_kfail.lambda);
  EXPECT_EQ(a.robust_kfail.phi, b.robust_kfail.phi);
  EXPECT_EQ(a.critical, b.critical);
  EXPECT_EQ(a.phase1a_samples, b.phase1a_samples);
  EXPECT_EQ(a.phase1b_samples, b.phase1b_samples);
  expect_bytes_equal(a.estimates.rho_lambda, b.estimates.rho_lambda);
  expect_bytes_equal(a.estimates.rho_phi, b.estimates.rho_phi);
}

TEST(HardeningTest, PerLinkObjectiveRunsClassicPipeline) {
  const TestInstance inst = make_test_instance(10, 4.0, 77, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  std::vector<double> probs(inst.graph.num_links());
  for (std::size_t l = 0; l < probs.size(); ++l)
    probs[l] = 0.001 * static_cast<double>(l + 1);

  OptimizerConfig config = smoke_config(77);
  config.objective = objective_from_link_probabilities(inst.graph, probs);

  ASSERT_TRUE(is_per_link_shaped(*config.objective, inst.graph.num_links()));

  RobustOptimizer opt(ev, config);
  const OptimizeResult sequential = opt.optimize();
  // Per-link path: no catalog diagnostics.
  EXPECT_EQ(sequential.catalog_size, 0u);
  EXPECT_TRUE(sequential.critical_scenarios.empty());
  EXPECT_TRUE(std::isnan(sequential.robust_objective_value));

  // And it keeps the engine-wide determinism contract across thread shapes.
  OptimizerConfig parallel_config = config;
  parallel_config.num_threads = 8;
  RobustOptimizer parallel_opt(ev, parallel_config);
  expect_optimize_results_identical(sequential, parallel_opt.optimize());
}

// ------------------------------------------------------------ catalog mode

TEST(HardeningTest, CatalogDowntimeObjectiveEndToEnd) {
  const TestInstance inst = make_test_instance(12, 4.0, 83, 0.65);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);

  ScenarioSet set;
  Rng catalog_rng(85);
  for (auto& s : sample_k_link_failures(inst.graph, 2, 8, catalog_rng))
    set.add(std::move(s));
  apply_rate_weights(set, derive_failure_rates(inst.graph));

  HardeningObjective objective;
  objective.set = set;
  objective.mode = AggregationMode::kExpectedDowntime;
  objective.period_minutes = 1440.0;

  OptimizerConfig config = smoke_config(83);
  config.objective = objective;
  RobustOptimizer optimizer(ev, config);
  const OptimizeResult result = optimizer.optimize();

  EXPECT_EQ(result.catalog_size, set.size());
  ASSERT_FALSE(result.critical_scenarios.empty());
  EXPECT_TRUE(std::is_sorted(result.critical_scenarios.begin(),
                             result.critical_scenarios.end()));
  for (const std::size_t s : result.critical_scenarios) EXPECT_LT(s, set.size());
  EXPECT_EQ(result.scenario_estimates.rho_lambda.size(), set.size());
  EXPECT_GT(result.scenario_samples, 0u);
  // Ec is derived from the critical scenarios' failed links.
  EXPECT_FALSE(result.critical.empty());

  // The reported objective value is the robust setting's expected avoidable
  // downtime over the critical sub-catalog, and Phase 2 starts from the
  // regular setting — so it can only improve on the regular routing's value.
  std::vector<FailureScenario> critical;
  std::vector<double> weights;
  for (const std::size_t s : result.critical_scenarios) {
    critical.push_back(set.scenario(s));
    weights.push_back(set.weight(s));
  }
  const std::vector<double> unavoidable = unavoidable_violation_profile(ev, critical);
  const auto downtime_of = [&](const WeightSetting& w) {
    const std::vector<EvalResult> results = ev.evaluate_failures(w, critical);
    std::vector<double> violations;
    for (const EvalResult& r : results)
      violations.push_back(static_cast<double>(r.sla_violations));
    return expected_downtime_minutes(violations, unavoidable, weights,
                                     objective.period_minutes);
  };
  ASSERT_TRUE(std::isfinite(result.robust_objective_value));
  EXPECT_GE(result.robust_objective_value, 0.0);
  // The optimizer accumulates (V - U) * period with one global subtraction;
  // the per-scenario reduction differs only in float association order.
  const double recomputed = downtime_of(result.robust);
  EXPECT_NEAR(result.robust_objective_value, recomputed,
              1e-9 * std::max(1.0, recomputed));
  EXPECT_LE(result.robust_objective_value, downtime_of(result.regular) + 1e-9);
}

TEST(HardeningTest, CatalogRunBitIdenticalForAnyThreadCount) {
  const TestInstance inst = make_test_instance(11, 4.0, 89, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);

  ScenarioSet set;
  Rng catalog_rng(93);
  for (auto& s : sample_k_link_failures(inst.graph, 2, 6, catalog_rng))
    set.add(std::move(s));
  const ScenarioSet geo =
      srlg_scenario_set(inst.graph, synthesize_geo_srlgs(inst.graph, {3}));
  for (const FailureScenario& s : geo.scenarios()) set.add(s);
  apply_rate_weights(set, derive_failure_rates(inst.graph));

  for (const AggregationMode mode :
       {AggregationMode::kExpectedCost, AggregationMode::kWeightedPercentile,
        AggregationMode::kExpectedDowntime}) {
    HardeningObjective objective;
    objective.set = set;
    objective.mode = mode;

    OptimizerConfig sequential = smoke_config(89);
    sequential.objective = objective;
    sequential.num_threads = 1;
    OptimizerConfig parallel = sequential;
    parallel.num_threads = 8;

    RobustOptimizer opt_seq(ev, sequential);
    const OptimizeResult a = opt_seq.optimize();
    RobustOptimizer opt_par(ev, parallel);
    const OptimizeResult b = opt_par.optimize();

    expect_optimize_results_identical(a, b);
    EXPECT_EQ(a.critical_scenarios, b.critical_scenarios);
    EXPECT_EQ(a.scenario_samples, b.scenario_samples);
    EXPECT_EQ(a.scenario_rank_converged, b.scenario_rank_converged);
    EXPECT_EQ(a.robust_objective_value, b.robust_objective_value)
        << "mode " << to_string(mode);
    expect_bytes_equal(a.scenario_estimates.rho_lambda, b.scenario_estimates.rho_lambda);
    expect_bytes_equal(a.scenario_estimates.rho_phi, b.scenario_estimates.rho_phi);
  }
}

TEST(HardeningTest, CatalogModeRejectsUnsupportedSelectors) {
  const TestInstance inst = make_test_instance(8, 4.0, 95);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  ScenarioSet set;
  Rng rng(97);
  for (auto& s : sample_k_link_failures(inst.graph, 2, 4, rng)) set.add(std::move(s));

  HardeningObjective objective;
  objective.set = set;
  objective.mode = AggregationMode::kWeightedPercentile;

  for (const SelectorKind selector :
       {SelectorKind::kLoad, SelectorKind::kThresholdCrossing}) {
    OptimizerConfig config = smoke_config(95);
    config.objective = objective;
    config.selector = selector;
    RobustOptimizer optimizer(ev, config);
    EXPECT_THROW(optimizer.optimize(), std::invalid_argument);
  }
  // Random and full-search baselines DO generalize to catalogs.
  for (const SelectorKind selector : {SelectorKind::kRandom, SelectorKind::kFullSearch}) {
    OptimizerConfig config = smoke_config(95);
    config.objective = objective;
    config.selector = selector;
    RobustOptimizer optimizer(ev, config);
    const OptimizeResult result = optimizer.optimize();
    EXPECT_FALSE(result.critical_scenarios.empty());
  }
}

// ------------------------------------------------------------ campaign keys

TEST(HardeningTest, CampaignSpecParsesHardenKeys) {
  std::istringstream spec(R"(name = harden
effort = smoke
[cell]
id = downtime
objective = downtime
harden_set = geo_srlg
harden_geo_grid = 5
harden_rate_weights = 1
harden_period_min = 1440
[cell]
id = percentile
objective = percentile
harden_set = k_link
harden_k = 3
harden_budget = 12
harden_percentile = 0.9
[cell]
id = plain
)");
  namespace exp = experiments;
  const exp::Campaign campaign = exp::parse_campaign_spec(spec);
  ASSERT_EQ(campaign.cells.size(), 3u);

  const exp::HardenSpec& downtime = campaign.cells[0].harden;
  EXPECT_TRUE(downtime.enabled);
  EXPECT_EQ(downtime.mode, AggregationMode::kExpectedDowntime);
  EXPECT_EQ(downtime.catalog.kind, exp::ScenarioSpec::Kind::kGeoSrlg);
  EXPECT_EQ(downtime.catalog.geo_grid, 5);
  EXPECT_TRUE(downtime.catalog.rate_weights);
  EXPECT_EQ(downtime.period_minutes, 1440.0);

  const exp::HardenSpec& percentile = campaign.cells[1].harden;
  EXPECT_TRUE(percentile.enabled);
  EXPECT_EQ(percentile.mode, AggregationMode::kWeightedPercentile);
  EXPECT_EQ(percentile.catalog.kind, exp::ScenarioSpec::Kind::kKLink);
  EXPECT_EQ(percentile.catalog.k, 3);
  EXPECT_EQ(percentile.catalog.budget, 12u);
  EXPECT_EQ(percentile.catalog.percentile, 0.9);

  EXPECT_FALSE(campaign.cells[2].harden.enabled);
  // `objective=` alone means: all single-link failures (the baseline cell).
  EXPECT_EQ(downtime.seed_offset, 23u);
}

TEST(HardeningTest, CampaignSpecErrorsNameLineAndKey) {
  const auto parse_error = [](const std::string& body) -> std::string {
    std::istringstream in(body);
    try {
      experiments::parse_campaign_spec(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };
  // Malformed value: the message carries the 1-based line number AND the key.
  const std::string bad_number = parse_error("[cell]\nid = a\nharden_k = 2x\n");
  EXPECT_NE(bad_number.find("line 3"), std::string::npos) << bad_number;
  EXPECT_NE(bad_number.find("harden_k"), std::string::npos) << bad_number;

  const std::string bad_mode = parse_error("[cell]\n\nobjective = sometimes\n");
  EXPECT_NE(bad_mode.find("line 3"), std::string::npos) << bad_mode;
  EXPECT_NE(bad_mode.find("objective"), std::string::npos) << bad_mode;

  const std::string unknown = parse_error("[cell]\nharden_sett = all_links\n");
  EXPECT_NE(unknown.find("line 2"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("harden_sett"), std::string::npos) << unknown;

  const std::string bad_set = parse_error("[cell]\nharden_set = everything\n");
  EXPECT_NE(bad_set.find("line 2"), std::string::npos) << bad_set;
  EXPECT_NE(bad_set.find("harden_set"), std::string::npos) << bad_set;

  const std::string bad_period = parse_error("[cell]\nharden_period_min = 0\n");
  EXPECT_NE(bad_period.find("line 2"), std::string::npos) << bad_period;
  EXPECT_NE(bad_period.find("harden_period_min"), std::string::npos) << bad_period;
}

TEST(HardeningTest, BuildHardeningObjectiveDefaultsToAllLinks) {
  const TestInstance inst = make_test_instance(10, 4.0, 99);
  namespace exp = experiments;
  exp::HardenSpec spec;
  spec.enabled = true;
  spec.mode = AggregationMode::kExpectedDowntime;
  spec.period_minutes = 1440.0;
  const HardeningObjective objective =
      exp::build_hardening_objective(spec, inst.graph, 5);
  EXPECT_EQ(objective.set.size(), inst.graph.num_links());
  EXPECT_EQ(objective.mode, AggregationMode::kExpectedDowntime);
  EXPECT_EQ(objective.period_minutes, 1440.0);
  EXPECT_NO_THROW(validate_objective(objective, inst.graph));
}

}  // namespace
}  // namespace dtr
