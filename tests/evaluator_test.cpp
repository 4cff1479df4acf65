#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "routing/evaluator.h"
#include "test_helpers.h"
#include "traffic/gravity.h"

namespace dtr {
namespace {

/// Two-node instance with a known single path: everything computable by hand.
struct TinyFixture {
  Graph g{2};
  ClassedTraffic traffic{TrafficMatrix(2), TrafficMatrix(2)};
  EvalParams params;

  TinyFixture(double delay_demand, double tput_demand, double prop_ms = 10.0,
              double capacity = 100.0) {
    g.add_link(0, 1, capacity, prop_ms);
    if (delay_demand > 0.0) traffic.delay.set(0, 1, delay_demand);
    if (tput_demand > 0.0) traffic.throughput.set(0, 1, tput_demand);
  }
};

TEST(EvaluatorTest, UncongestedPathMeetsSla) {
  TinyFixture f(3.0, 7.0);  // total 10 on capacity 100 — no queueing
  const Evaluator ev(f.g, f.traffic, f.params);
  WeightSetting w(f.g.num_links());
  const EvalResult r = ev.evaluate(w);
  EXPECT_DOUBLE_EQ(r.lambda, 0.0);  // 10ms < theta=25ms
  EXPECT_EQ(r.sla_violations, 0);
  // Phi: Fortz cost of 10 Mbps at 100 Mbps capacity = 10 (unit slope).
  EXPECT_NEAR(r.phi, 10.0, 1e-9);
}

TEST(EvaluatorTest, SlaViolationFromPropagationDelay) {
  TinyFixture f(1.0, 0.0, /*prop_ms=*/30.0);
  const Evaluator ev(f.g, f.traffic, f.params);
  WeightSetting w(f.g.num_links());
  const EvalResult r = ev.evaluate(w);
  EXPECT_EQ(r.sla_violations, 1);
  EXPECT_NEAR(r.lambda, 100.0 + (30.0 - 25.0), 1e-9);  // B1 + B2*(30-25)
}

TEST(EvaluatorTest, QueueingPushesDelayOverSla) {
  // 24ms propagation; queueing above 95% load adds ~0.5ms -> violation.
  TinyFixture f(29.0, 67.0, /*prop_ms=*/24.9);  // 96% load
  const Evaluator ev(f.g, f.traffic, f.params);
  WeightSetting w(f.g.num_links());
  const EvalResult r = ev.evaluate(w);
  EXPECT_EQ(r.sla_violations, 1);
  EXPECT_GT(r.lambda, 100.0);
}

TEST(EvaluatorTest, PhiOnlyOnThroughputCarryingLinks) {
  // Delay traffic on link 0-1; throughput demand zero => Phi == 0 even
  // though the link is loaded.
  TinyFixture f(10.0, 0.0);
  const Evaluator ev(f.g, f.traffic, f.params);
  WeightSetting w(f.g.num_links());
  const EvalResult r = ev.evaluate(w);
  EXPECT_DOUBLE_EQ(r.phi, 0.0);
}

TEST(EvaluatorTest, PhiUsesTotalLoad) {
  // Throughput 10 + delay 50 share the link: Phi charged on 60 total.
  TinyFixture f(50.0, 10.0);
  const Evaluator ev(f.g, f.traffic, f.params);
  WeightSetting w(f.g.num_links());
  const EvalResult r = ev.evaluate(w);
  // Fortz at 60% of 100Mbps: f(60) = 33.33 + 3*26.67 = 113.33...
  EXPECT_NEAR(r.phi, 100.0 / 3.0 + 3.0 * (60.0 - 100.0 / 3.0), 1e-6);
}

TEST(EvaluatorTest, FullDetailPopulatesProfiles) {
  const test::TestInstance inst = test::make_test_instance(8, 4.0, 3);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const EvalResult r = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  EXPECT_EQ(r.arc_total_load.size(), inst.graph.num_arcs());
  EXPECT_EQ(r.arc_utilization.size(), inst.graph.num_arcs());
  EXPECT_EQ(r.sd_delay_ms.size(), inst.graph.num_nodes() * inst.graph.num_nodes());
  EXPECT_EQ(r.carries_delay_traffic.size(), inst.graph.num_arcs());
  const EvalResult cheap = ev.evaluate(w);
  EXPECT_TRUE(cheap.arc_total_load.empty());
  EXPECT_DOUBLE_EQ(cheap.lambda, r.lambda);
  EXPECT_DOUBLE_EQ(cheap.phi, r.phi);
}

TEST(EvaluatorTest, LinkFailureCannotShortenPaths) {
  // Under min-hop (unit-weight) routing, removing a link can only lengthen
  // shortest paths, so the total carried load (sum over arcs of load ==
  // sum over demands of volume * hops) must not decrease. Phi itself is NOT
  // monotone (convex link costs + ECMP rebalancing can lower it), which is
  // exactly why the robust search is non-trivial.
  const test::TestInstance inst = test::make_test_instance(10, 4.0, 5, 0.5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const EvalResult normal = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  double normal_load = 0.0;
  for (double x : normal.arc_total_load) normal_load += x;
  for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
    const EvalResult failed = ev.evaluate(w, FailureScenario::link(l), EvalDetail::kFull);
    ASSERT_EQ(failed.disconnected_delay_pairs, 0u);  // 2-edge-connected input
    double failed_load = 0.0;
    for (double x : failed.arc_total_load) failed_load += x;
    EXPECT_GE(failed_load, normal_load - 1e-6) << "link " << l;
  }
}

TEST(EvaluatorTest, DisconnectionChargedNotCrashing) {
  // Diamond minus redundancy: chain 0-1-2; failing middle link disconnects.
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  ClassedTraffic traffic{TrafficMatrix(3), TrafficMatrix(3)};
  traffic.delay.set(0, 2, 3.0);
  traffic.throughput.set(0, 2, 7.0);
  EvalParams params;
  const Evaluator ev(g, traffic, params);
  WeightSetting w(g.num_links());
  const EvalResult r = ev.evaluate(w, FailureScenario::link(1));
  EXPECT_EQ(r.disconnected_delay_pairs, 1u);
  EXPECT_EQ(r.disconnected_tput_pairs, 1u);
  EXPECT_EQ(r.sla_violations, 1);
  // Lambda: B1 + B2 * disconnect_excess (100ms default).
  EXPECT_NEAR(r.lambda, 100.0 + 100.0, 1e-9);
  // Phi: max slope * unrouted volume.
  EXPECT_NEAR(r.phi, 5000.0 * 7.0, 1e-9);
}

TEST(EvaluatorTest, NodeFailureRemovesItsTraffic) {
  const Graph g = test::make_ring(4);
  ClassedTraffic traffic{TrafficMatrix(4), TrafficMatrix(4)};
  traffic.delay.set(0, 2, 5.0);
  traffic.delay.set(1, 3, 5.0);  // sourced at the failing node
  EvalParams params;
  const Evaluator ev(g, traffic, params);
  WeightSetting w(g.num_links());
  const EvalResult r = ev.evaluate(w, FailureScenario::node(1), EvalDetail::kFull);
  // Node 1's traffic is gone; 0->2 must route around via 3.
  EXPECT_EQ(r.disconnected_delay_pairs, 0u);
  double total_load = 0.0;
  for (double x : r.arc_total_load) total_load += x;
  EXPECT_NEAR(total_load, 5.0 * 2.0, 1e-9);  // 0-3-2 two hops
}

TEST(EvaluatorTest, SweepSumsMatchDetailed) {
  const test::TestInstance inst = test::make_test_instance(9, 4.0, 6, 0.5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const auto scenarios = all_link_failures(inst.graph);
  const SweepResult sum = ev.sweep(w, scenarios);
  const auto detailed = ev.evaluate_failures(w, scenarios);
  double lambda = 0.0, phi = 0.0;
  for (const EvalResult& r : detailed) {
    lambda += r.lambda;
    phi += r.phi;
  }
  EXPECT_NEAR(sum.lambda, lambda, 1e-9);
  EXPECT_NEAR(sum.phi, phi, 1e-9);
  EXPECT_FALSE(sum.aborted);
  EXPECT_EQ(sum.scenarios_evaluated, scenarios.size());
}

TEST(EvaluatorTest, SweepEarlyAbortsAgainstBound) {
  const test::TestInstance inst = test::make_test_instance(9, 4.0, 6, 0.5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const auto scenarios = all_link_failures(inst.graph);
  const SweepResult full = ev.sweep(w, scenarios);
  // A bound well below the true sum must trigger an abort before the end.
  const CostPair tight{full.lambda / 2.0, full.phi / 2.0};
  const SweepResult aborted = ev.sweep(w, scenarios, {.abort_bound = &tight});
  EXPECT_TRUE(aborted.aborted);
  EXPECT_LE(aborted.scenarios_evaluated, scenarios.size());
  // A very loose bound must not abort.
  const CostPair loose{full.lambda * 2.0 + 1.0, full.phi * 2.0 + 1.0};
  const SweepResult kept = ev.sweep(w, scenarios, {.abort_bound = &loose});
  EXPECT_FALSE(kept.aborted);
  EXPECT_NEAR(kept.lambda, full.lambda, 1e-9);
}

TEST(EvaluatorTest, WeightedSweepComputesExpectation) {
  const test::TestInstance inst = test::make_test_instance(9, 4.0, 6, 0.5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const auto scenarios = all_link_failures(inst.graph);
  std::vector<double> weights(scenarios.size(), 0.0);
  weights[0] = 2.0;
  weights[1] = 0.5;
  const SweepResult weighted = ev.sweep(w, scenarios, {.scenario_weights = weights});
  const EvalResult r0 = ev.evaluate(w, scenarios[0]);
  const EvalResult r1 = ev.evaluate(w, scenarios[1]);
  EXPECT_NEAR(weighted.lambda, 2.0 * r0.lambda + 0.5 * r1.lambda, 1e-9);
  EXPECT_NEAR(weighted.phi, 2.0 * r0.phi + 0.5 * r1.phi, 1e-9);
}

TEST(EvaluatorTest, WeightedSweepValidation) {
  const test::TestInstance inst = test::make_test_instance(8, 4.0, 6);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  const auto scenarios = all_link_failures(inst.graph);
  const std::vector<double> short_weights(2, 1.0);
  EXPECT_THROW(ev.sweep(w, scenarios, {.scenario_weights = short_weights}),
               std::invalid_argument);
  std::vector<double> negative(scenarios.size(), -1.0);
  EXPECT_THROW(ev.sweep(w, scenarios, {.scenario_weights = negative}),
               std::invalid_argument);
}

TEST(EvaluatorTest, PhiUncapPositiveAndStable) {
  const test::TestInstance inst = test::make_test_instance(8, 4.0, 7);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  EXPECT_GT(ev.phi_uncap(), 0.0);
  EXPECT_EQ(ev.delay_demand_pairs(), inst.traffic.delay.num_positive_demands());
}

TEST(EvaluatorTest, WorstPathModeNeverBelowExpected) {
  test::TestInstance inst = test::make_test_instance(10, 4.0, 8, 0.6);
  const Evaluator expected_ev(inst.graph, inst.traffic, inst.params);
  EvalParams worst_params = inst.params;
  worst_params.sla_delay_mode = SlaDelayMode::kWorstPath;
  const Evaluator worst_ev(inst.graph, inst.traffic, worst_params);
  WeightSetting w(inst.graph.num_links());
  const EvalResult e = expected_ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  const EvalResult wr = worst_ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  for (std::size_t i = 0; i < e.sd_delay_ms.size(); ++i) {
    if (e.sd_delay_ms[i] < 0.0) continue;
    EXPECT_GE(wr.sd_delay_ms[i], e.sd_delay_ms[i] - 1e-9);
  }
  EXPECT_GE(wr.sla_violations, e.sla_violations);
}

TEST(EvaluatorTest, SizeMismatchValidation) {
  const test::TestInstance inst = test::make_test_instance(8, 4.0, 9);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting wrong(3);
  EXPECT_THROW(ev.evaluate(wrong), std::invalid_argument);
  ClassedTraffic mismatched{TrafficMatrix(3), TrafficMatrix(3)};
  EXPECT_THROW(Evaluator(inst.graph, mismatched, inst.params), std::invalid_argument);
}

TEST(EvaluatorTest, DeterministicAcrossCalls) {
  const test::TestInstance inst = test::make_test_instance(10, 4.0, 10, 0.5);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  WeightSetting w(inst.graph.num_links());
  Rng rng(1);
  randomize_weights(w, 40, rng);
  const EvalResult a = ev.evaluate(w);
  const EvalResult b = ev.evaluate(w);
  EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
  EXPECT_DOUBLE_EQ(a.phi, b.phi);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
}

TEST(EvaluatorTest, PhiFirstRejectsExactlyAboveBound) {
  // evaluate_phi_first(w, bound) is nullopt iff evaluate(w).phi > bound and
  // otherwise evaluate(w).cost() bit for bit — on both engine paths, and
  // whether or not the base was cached (or its Lambda computed) before.
  const test::TestInstance inst = test::make_test_instance(10, 4.0, 29);
  for (const bool incremental : {true, false}) {
    const Evaluator ev(inst.graph, inst.traffic, inst.params, {.incremental = incremental});
    const Evaluator reference(inst.graph, inst.traffic, inst.params, {.incremental = incremental});
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const WeightSetting w = test::random_weights(inst.graph, 30, seed);
      const CostPair want = reference.evaluate(w).cost();
      const double inf = std::numeric_limits<double>::infinity();
      const double below = std::nextafter(want.phi, 0.0);
      const double above = std::nextafter(want.phi, inf);
      for (const double bound : {below, 0.0, want.phi, above, inf}) {
        const std::optional<CostPair> got = ev.evaluate_phi_first(w, bound);
        ASSERT_EQ(got.has_value(), !(want.phi > bound))
            << "incremental=" << incremental << " seed " << seed << " bound " << bound;
        if (!got.has_value()) continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got->lambda),
                  std::bit_cast<std::uint64_t>(want.lambda));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got->phi), std::bit_cast<std::uint64_t>(want.phi));
      }
    }
  }
}

}  // namespace
}  // namespace dtr
