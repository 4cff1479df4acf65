/// End-to-end integration tests pinning the paper's qualitative claims at
/// smoke scale (seconds, deterministic seeds). These are the invariants that
/// must survive any scaling of search budgets.

#include <gtest/gtest.h>

#include <memory>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "graph/isp.h"
#include "test_helpers.h"
#include "traffic/uncertainty.h"
#include "util/stats.h"

namespace dtr {
namespace {

OptimizerConfig smoke(std::uint64_t seed) {
  return default_optimizer_config(Effort::kSmoke, seed);
}

TEST(IntegrationTest, IspBackboneEndToEnd) {
  const IspTopology isp = make_isp_backbone();
  EvalParams params;
  ClassedTraffic traffic =
      split_by_class(make_gravity_traffic(isp.graph, {1.0, 1.0, 3}), 0.30);
  scale_to_utilization(isp.graph, traffic, {UtilizationTarget::Kind::kAverage, 0.43});
  const Evaluator ev(isp.graph, traffic, params);
  RobustOptimizer opt(ev, smoke(3));
  const OptimizeResult r = opt.optimize();

  const auto scenarios = all_link_failures(isp.graph);
  const FailureProfile regular = profile_failures(ev, r.regular, scenarios);
  const FailureProfile robust = profile_failures(ev, r.robust, scenarios);
  // Robust never worse on average, constraints hold.
  EXPECT_LE(robust.beta(), regular.beta() + 1e-9);
  EXPECT_LE(r.robust_normal_cost.phi, 1.2 * r.regular_cost.phi + 1e-6);
  const LexicographicOrder ord;
  EXPECT_TRUE(ord.values_equal(r.robust_normal_cost.lambda, r.regular_cost.lambda));
}

TEST(IntegrationTest, UnavoidableFloorBoundsEveryRouting) {
  const auto inst = test::make_test_instance(12, 5.0, 7, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  RobustOptimizer opt(ev, smoke(7));
  const OptimizeResult r = opt.optimize();
  const auto scenarios = all_link_failures(inst.graph);
  const auto floor = unavoidable_violation_profile(ev, scenarios);
  const FailureProfile robust = profile_failures(ev, r.robust, scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_GE(robust.violations[i], floor[i]) << "scenario " << i;
}

TEST(IntegrationTest, RobustHelpsUnderTrafficUncertainty) {
  // Sec. V-F claim: the robust routing's advantage survives TM perturbation.
  const auto inst = test::make_test_instance(12, 5.0, 9, 0.7);
  const Evaluator base_ev(inst.graph, inst.traffic, inst.params);
  RobustOptimizer opt(base_ev, smoke(9));
  const OptimizeResult r = opt.optimize();
  const auto scenarios = all_link_failures(inst.graph);

  Rng rng(99);
  RunningStats regular_beta, robust_beta;
  for (int trial = 0; trial < 5; ++trial) {
    const ClassedTraffic actual = apply_gaussian_fluctuation(inst.traffic, {0.2}, rng);
    const Evaluator ev(inst.graph, actual, inst.params);
    regular_beta.add(profile_failures(ev, r.regular, scenarios).beta());
    robust_beta.add(profile_failures(ev, r.robust, scenarios).beta());
  }
  EXPECT_LE(robust_beta.mean(), regular_beta.mean() + 1e-9);
}

TEST(IntegrationTest, LinkRobustAlsoHelpsAgainstNodeFailures) {
  // Sec. V-F claim: robustness to link failures is not bought with added
  // fragility to node failures.
  const auto inst = test::make_test_instance(12, 5.0, 13, 0.6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  RobustOptimizer opt(ev, smoke(13));
  const OptimizeResult r = opt.optimize();
  const auto node_scenarios = all_node_failures(inst.graph);
  const FailureProfile regular = profile_failures(ev, r.regular, node_scenarios);
  const FailureProfile robust = profile_failures(ev, r.robust, node_scenarios);
  // Weak form of the claim (smoke budgets): no catastrophic degradation.
  EXPECT_LE(robust.beta(), regular.beta() * 1.5 + 1.0);
}

TEST(IntegrationTest, CriticalSearchTracksFullSearch) {
  // Table I's claim at smoke scale: beta_crt lands between beta_full and
  // beta_regular (and far from regular when diversity allows).
  const auto inst = test::make_test_instance(12, 5.0, 17, 0.55);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const auto scenarios = all_link_failures(inst.graph);

  OptimizerConfig full_config = smoke(17);
  full_config.selector = SelectorKind::kFullSearch;
  RobustOptimizer full_opt(ev, full_config);
  const OptimizeResult full = full_opt.optimize();

  OptimizerConfig crt_config = smoke(17);
  crt_config.critical_fraction = 0.25;
  RobustOptimizer crt_opt(ev, crt_config);
  const OptimizeResult crt = crt_opt.optimize();

  const double beta_full = profile_failures(ev, full.robust, scenarios).beta();
  const double beta_crt = profile_failures(ev, crt.robust, scenarios).beta();
  const double beta_reg = profile_failures(ev, full.regular, scenarios).beta();
  EXPECT_LE(beta_crt, beta_reg + 1e-9);
  // Allow smoke-budget noise: crt within a generous factor of full.
  EXPECT_LE(beta_full, beta_crt + beta_reg);
}

TEST(IntegrationTest, WorstPathSlaModeEndToEnd) {
  auto inst = test::make_test_instance(10, 4.0, 21, 0.5);
  inst.params.sla_delay_mode = SlaDelayMode::kWorstPath;
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  RobustOptimizer opt(ev, smoke(21));
  const OptimizeResult r = opt.optimize();
  const auto scenarios = all_link_failures(inst.graph);
  const FailureProfile regular = profile_failures(ev, r.regular, scenarios);
  const FailureProfile robust = profile_failures(ev, r.robust, scenarios);
  EXPECT_LE(robust.beta(), regular.beta() + 1e-9);
}

TEST(IntegrationTest, HotSpotSurgeDoesNotBreakEvaluation) {
  const auto inst = test::make_test_instance(12, 5.0, 23, 0.7);
  Rng rng(5);
  const ClassedTraffic surged = apply_hot_spot(
      inst.traffic, {HotSpotParams::Direction::kDownload, 0.1, 0.5, 2.0, 6.0}, rng);
  const Evaluator ev(inst.graph, surged, inst.params);
  const WeightSetting w(inst.graph.num_links());
  const auto scenarios = all_link_failures(inst.graph);
  const FailureProfile p = profile_failures(ev, w, scenarios);
  EXPECT_EQ(p.violations.size(), scenarios.size());
  for (double v : p.lambda) EXPECT_GE(v, 0.0);
  for (double v : p.phi) EXPECT_GE(v, 0.0);
}

}  // namespace
}  // namespace dtr
