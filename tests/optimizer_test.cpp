#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "test_helpers.h"

namespace dtr {
namespace {

OptimizerConfig smoke_config(std::uint64_t seed) {
  OptimizerConfig c = default_optimizer_config(Effort::kSmoke, seed);
  c.wmax = 60;
  return c;
}

struct OptimizedFixture {
  test::TestInstance inst;
  std::unique_ptr<Evaluator> evaluator;
  OptimizeResult result;
};

OptimizedFixture run_smoke(int nodes = 10, double degree = 4.0, std::uint64_t seed = 3,
                           double util = 0.55) {
  OptimizedFixture f;
  f.inst = test::make_test_instance(nodes, degree, seed, util);
  f.evaluator = std::make_unique<Evaluator>(f.inst.graph, f.inst.traffic, f.inst.params);
  RobustOptimizer optimizer(*f.evaluator, smoke_config(seed));
  f.result = optimizer.optimize();
  return f;
}

TEST(OptimizerTest, PhaseOneImprovesOnWarmStart) {
  const auto f = run_smoke();
  const WeightSetting warm = make_warm_start(f.inst.graph, 60);
  const CostPair warm_cost = f.evaluator->evaluate(warm).cost();
  const LexicographicOrder ord;
  EXPECT_FALSE(ord.less(warm_cost, f.result.regular_cost));
}

TEST(OptimizerTest, RobustSatisfiesConstraints) {
  const auto f = run_smoke();
  const LexicographicOrder ord;
  // Eq. (5): no Lambda degradation under normal conditions.
  EXPECT_TRUE(
      ord.values_equal(f.result.robust_normal_cost.lambda, f.result.regular_cost.lambda));
  // Eq. (6): Phi within (1+chi).
  EXPECT_LE(f.result.robust_normal_cost.phi,
            (1.0 + 0.2) * f.result.regular_cost.phi + 1e-6);
}

TEST(OptimizerTest, RobustNoWorseOnCriticalSet) {
  const auto f = run_smoke();
  std::vector<FailureScenario> critical;
  for (LinkId l : f.result.critical) critical.push_back(FailureScenario::link(l));
  const SweepResult regular_fail = f.evaluator->sweep(f.result.regular, critical);
  const LexicographicOrder ord;
  // Phase 2 starts from the regular setting, so its Kfail can only improve.
  EXPECT_FALSE(ord.less(regular_fail.cost(), f.result.robust_kfail));
}

TEST(OptimizerTest, ReportedKfailMatchesRecomputation) {
  const auto f = run_smoke();
  std::vector<FailureScenario> critical;
  for (LinkId l : f.result.critical) critical.push_back(FailureScenario::link(l));
  const SweepResult recomputed = f.evaluator->sweep(f.result.robust, critical);
  EXPECT_NEAR(recomputed.lambda, f.result.robust_kfail.lambda, 1e-6);
  EXPECT_NEAR(recomputed.phi, f.result.robust_kfail.phi, 1e-6);
}

TEST(OptimizerTest, CriticalSetSizeMatchesFraction) {
  const auto f = run_smoke();
  RobustOptimizer optimizer(*f.evaluator, smoke_config(3));
  const std::size_t expected = optimizer.critical_target_size();
  EXPECT_LE(f.result.critical.size(), expected);
  EXPECT_GE(f.result.critical.size(), 1u);
  // Links are valid and unique.
  EXPECT_TRUE(std::is_sorted(f.result.critical.begin(), f.result.critical.end()));
  for (LinkId l : f.result.critical) EXPECT_LT(l, f.inst.graph.num_links());
}

TEST(OptimizerTest, CriticalCountOverridesFraction) {
  auto inst = test::make_test_instance(10, 4.0, 5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = smoke_config(5);
  config.critical_count = 3;
  RobustOptimizer opt(ev, config);
  EXPECT_EQ(opt.critical_target_size(), 3u);
  config.critical_count = 0;
  config.critical_fraction = 0.25;
  RobustOptimizer opt2(ev, config);
  EXPECT_EQ(opt2.critical_target_size(),
            static_cast<std::size_t>(std::lround(0.25 * inst.graph.num_links())));
}

TEST(OptimizerTest, DeterministicForSeed) {
  const auto a = run_smoke(9, 4.0, 11);
  const auto b = run_smoke(9, 4.0, 11);
  EXPECT_TRUE(a.result.regular == b.result.regular);
  EXPECT_TRUE(a.result.robust == b.result.robust);
  EXPECT_EQ(a.result.critical, b.result.critical);
  EXPECT_DOUBLE_EQ(a.result.robust_kfail.lambda, b.result.robust_kfail.lambda);
}

TEST(OptimizerTest, SamplesWereCollected) {
  const auto f = run_smoke();
  EXPECT_GT(f.result.phase1a_samples + f.result.phase1b_samples, 0u);
  EXPECT_EQ(f.result.estimates.rho_lambda.size(), f.inst.graph.num_links());
  EXPECT_GT(f.result.phase1_evaluations, 0);
  EXPECT_GT(f.result.phase2_evaluations, 0);
}

TEST(OptimizerTest, FullSearchSelectorUsesAllLinks) {
  auto inst = test::make_test_instance(8, 4.0, 7);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = smoke_config(7);
  config.selector = SelectorKind::kFullSearch;
  RobustOptimizer opt(ev, config);
  const OptimizeResult r = opt.optimize();
  EXPECT_EQ(r.critical.size(), inst.graph.num_links());
}

TEST(OptimizerTest, BaselineSelectorsProduceValidSets) {
  auto inst = test::make_test_instance(8, 4.0, 9);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  for (SelectorKind kind : {SelectorKind::kRandom, SelectorKind::kLoad,
                            SelectorKind::kThresholdCrossing}) {
    OptimizerConfig config = smoke_config(9);
    config.selector = kind;
    config.critical_fraction = 0.2;
    RobustOptimizer opt(ev, config);
    const OptimizeResult r = opt.optimize();
    EXPECT_GE(r.critical.size(), 1u) << to_string(kind);
    EXPECT_LE(r.critical.size(), inst.graph.num_links()) << to_string(kind);
  }
}

TEST(OptimizerTest, BothSamplingModesCollectSamples) {
  for (SamplingMode mode : {SamplingMode::kEmulatedWeights, SamplingMode::kExactFailure}) {
    auto inst = test::make_test_instance(8, 4.0, 13);
    const Evaluator ev(inst.graph, inst.traffic, inst.params);
    OptimizerConfig config = smoke_config(13);
    config.sampling_mode = mode;
    RobustOptimizer opt(ev, config);
    const OptimizeResult r = opt.optimize();
    EXPECT_GT(r.phase1a_samples + r.phase1b_samples, 0u) << to_string(mode);
    EXPECT_GE(r.critical.size(), 1u) << to_string(mode);
  }
}

TEST(OptimizerTest, RandomInitWorksToo) {
  auto inst = test::make_test_instance(8, 4.0, 15);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = smoke_config(15);
  config.warm_start = false;
  RobustOptimizer opt(ev, config);
  const OptimizeResult r = opt.optimize();
  EXPECT_GE(r.phase1_evaluations, 1);
}

TEST(OptimizerTest, ConfigValidation) {
  auto inst = test::make_test_instance(8, 4.0, 17);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig bad = smoke_config(17);
  bad.critical_fraction = 0.0;
  EXPECT_THROW(RobustOptimizer(ev, bad), std::invalid_argument);
  bad = smoke_config(17);
  bad.chi = -0.5;
  EXPECT_THROW(RobustOptimizer(ev, bad), std::invalid_argument);
  // NaN fails both `x < 0` and `x > 1`; non-finite values are refused
  // explicitly, even when critical_count overrides the fraction.
  for (const double non_finite : {std::nan(""), HUGE_VAL}) {
    bad = smoke_config(17);
    bad.critical_fraction = non_finite;
    EXPECT_THROW(RobustOptimizer(ev, bad), std::invalid_argument) << non_finite;
    bad.critical_count = 3;
    EXPECT_THROW(RobustOptimizer(ev, bad), std::invalid_argument) << non_finite;
    bad = smoke_config(17);
    bad.chi = non_finite;
    EXPECT_THROW(RobustOptimizer(ev, bad), std::invalid_argument) << non_finite;
  }
}

TEST(OptimizerTest, NoObjectiveMatchesUnitWeightPerLinkObjective) {
  // No objective means every single-link failure at unit weight under
  // expected cost: the same catalog objective_from_link_probabilities builds
  // from all-ones probabilities. Both runs must agree bit for bit, for every
  // selector and both sampling modes.
  auto inst = test::make_test_instance(9, 4.0, 37, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const std::vector<double> ones(inst.graph.num_links(), 1.0);
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out(v.size());
    if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
    return out;
  };
  for (const SelectorKind selector :
       {SelectorKind::kDistributionGap, SelectorKind::kRandom, SelectorKind::kLoad,
        SelectorKind::kThresholdCrossing, SelectorKind::kFullSearch}) {
    for (const SamplingMode mode :
         {SamplingMode::kExactFailure, SamplingMode::kEmulatedWeights}) {
      SCOPED_TRACE(to_string(selector) + " / " + to_string(mode));
      OptimizerConfig config = smoke_config(37);
      config.selector = selector;
      config.sampling_mode = mode;
      const OptimizeResult plain = RobustOptimizer(ev, config).optimize();
      config.objective = objective_from_link_probabilities(inst.graph, ones);
      const OptimizeResult unit = RobustOptimizer(ev, config).optimize();

      EXPECT_TRUE(plain.regular == unit.regular);
      EXPECT_TRUE(plain.robust == unit.robust);
      EXPECT_EQ(plain.critical, unit.critical);
      EXPECT_EQ(bits({plain.robust_kfail.lambda, plain.robust_kfail.phi}),
                bits({unit.robust_kfail.lambda, unit.robust_kfail.phi}));
      EXPECT_EQ(bits({plain.robust_normal_cost.lambda, plain.robust_normal_cost.phi}),
                bits({unit.robust_normal_cost.lambda, unit.robust_normal_cost.phi}));
      EXPECT_EQ(bits(plain.estimates.rho_lambda), bits(unit.estimates.rho_lambda));
      EXPECT_EQ(bits(plain.estimates.rho_phi), bits(unit.estimates.rho_phi));
      EXPECT_EQ(plain.criticality_converged, unit.criticality_converged);
      EXPECT_EQ(plain.phase1a_samples, unit.phase1a_samples);
      EXPECT_EQ(plain.phase1b_samples, unit.phase1b_samples);
      EXPECT_EQ(plain.critical_churn, unit.critical_churn);
      EXPECT_EQ(plain.phase1_evaluations, unit.phase1_evaluations);
      EXPECT_EQ(plain.phase2_evaluations, unit.phase2_evaluations);
      EXPECT_EQ(plain.phase2_scenario_evaluations, unit.phase2_scenario_evaluations);
      ASSERT_EQ(plain.trace.size(), unit.trace.size());
      for (std::size_t i = 0; i < plain.trace.size(); ++i) {
        EXPECT_EQ(plain.trace[i].phase, unit.trace[i].phase);
        EXPECT_EQ(plain.trace[i].move.link, unit.trace[i].move.link);
        EXPECT_EQ(bits({plain.trace[i].move.cost.lambda, plain.trace[i].move.cost.phi}),
                  bits({unit.trace[i].move.cost.lambda, unit.trace[i].move.cost.phi}));
      }
      // Both are per-link runs: no catalog diagnostics.
      EXPECT_EQ(unit.catalog_size, 0u);
      EXPECT_TRUE(std::isnan(unit.robust_objective_value));
    }
  }
}

TEST(OptimizerTest, FailureProbabilitiesSteerCriticalSelection) {
  // Give one link overwhelming failure probability: with the probabilistic
  // extension it must enter Ec (its expected regret dominates) as long as it
  // has any criticality signal at all.
  auto inst = test::make_test_instance(10, 4.0, 31, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = smoke_config(31);
  config.critical_count = 2;
  RobustOptimizer baseline(ev, config);
  const OptimizeResult base = baseline.optimize();

  // Pick a link outside the baseline Ec that has nonzero criticality.
  LinkId boosted = kInvalidLink;
  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const bool in_ec = std::find(base.critical.begin(), base.critical.end(), l) !=
                       base.critical.end();
    if (!in_ec && base.estimates.rho_lambda[l] + base.estimates.rho_phi[l] > 0.0) {
      boosted = l;
      break;
    }
  }
  if (boosted == kInvalidLink) GTEST_SKIP() << "no boostable link at this seed";

  std::vector<double> probs(inst.graph.num_links(), 1e-6);
  probs[boosted] = 1.0;
  config.objective = objective_from_link_probabilities(inst.graph, probs);
  RobustOptimizer weighted(ev, config);
  const OptimizeResult r = weighted.optimize();
  EXPECT_NE(std::find(r.critical.begin(), r.critical.end(), boosted), r.critical.end());
}

TEST(OptimizerTest, FailureProbabilitySizeValidated) {
  auto inst = test::make_test_instance(8, 4.0, 33);
  const std::vector<double> wrong_size = {0.5, 0.5};
  EXPECT_THROW(objective_from_link_probabilities(inst.graph, wrong_size),
               std::invalid_argument);
  // An objective referencing links beyond the graph is rejected at optimize().
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = smoke_config(33);
  HardeningObjective bad;
  bad.set.add(FailureScenario::link(inst.graph.num_links() + 7), 1.0, "out-of-range");
  config.objective = bad;
  RobustOptimizer opt(ev, config);
  EXPECT_THROW(opt.optimize(), std::invalid_argument);
}

TEST(OptimizerTest, ToStringHelpers) {
  EXPECT_EQ(to_string(SamplingMode::kEmulatedWeights), "emulated-weights");
  EXPECT_EQ(to_string(SamplingMode::kExactFailure), "exact-failure");
  EXPECT_EQ(to_string(SelectorKind::kDistributionGap), "distribution-gap");
  EXPECT_EQ(to_string(SelectorKind::kFullSearch), "full-search");
}

TEST(OptimizerTest, DefaultConfigsScaleWithEffort) {
  const auto smoke = default_optimizer_config(Effort::kSmoke, 1);
  const auto quick = default_optimizer_config(Effort::kQuick, 1);
  const auto full = default_optimizer_config(Effort::kFull, 1);
  EXPECT_LT(smoke.phase1.diversification_interval, quick.phase1.diversification_interval);
  EXPECT_LT(quick.phase1.diversification_interval, full.phase1.diversification_interval);
  // Paper values at full effort.
  EXPECT_EQ(full.phase1.diversification_interval, 100);
  EXPECT_EQ(full.phase1.stall_diversifications, 20);
  EXPECT_EQ(full.phase2.diversification_interval, 30);
  EXPECT_EQ(full.phase2.stall_diversifications, 10);
  EXPECT_EQ(full.criticality.tau, 30);
}

// The headline integration claim: on a diverse topology, the robust routing
// suffers (weakly) fewer SLA violations across all single link failures than
// the regular routing, at bounded normal-condition throughput cost.
TEST(OptimizerIntegrationTest, RobustBeatsRegularAcrossFailures) {
  double robust_beta_sum = 0.0, regular_beta_sum = 0.0;
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    auto inst = test::make_test_instance(12, 5.0, seed, 0.65);
    const Evaluator ev(inst.graph, inst.traffic, inst.params);
    OptimizerConfig config = default_optimizer_config(Effort::kSmoke, seed);
    RobustOptimizer opt(ev, config);
    const OptimizeResult r = opt.optimize();
    const auto scenarios = all_link_failures(inst.graph);
    const FailureProfile regular = profile_failures(ev, r.regular, scenarios);
    const FailureProfile robust = profile_failures(ev, r.robust, scenarios);
    robust_beta_sum += robust.beta();
    regular_beta_sum += regular.beta();
  }
  EXPECT_LE(robust_beta_sum, regular_beta_sum + 1e-9);
}

}  // namespace
}  // namespace dtr
