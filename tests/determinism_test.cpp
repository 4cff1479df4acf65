#include <gtest/gtest.h>

#include <vector>

#include "core/optimizer.h"
#include "routing/failures.h"
#include "scenarios/hardening.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::make_diamond;
using test::make_ring;
using test::make_ring_with_chords;

ClassedTraffic make_traffic(const Graph& g, std::uint64_t seed) {
  TrafficMatrix total = make_gravity_traffic(g, {1.0, 1.0, seed});
  ClassedTraffic traffic = split_by_class(total, 0.30);
  return traffic;
}

void expect_results_identical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.disconnected_delay_pairs, b.disconnected_delay_pairs);
  EXPECT_EQ(a.disconnected_tput_pairs, b.disconnected_tput_pairs);
  EXPECT_EQ(a.arc_total_load, b.arc_total_load);
  EXPECT_EQ(a.arc_utilization, b.arc_utilization);
  EXPECT_EQ(a.sd_delay_ms, b.sd_delay_ms);
  EXPECT_EQ(a.carries_delay_traffic, b.carries_delay_traffic);
}

TEST(DeterminismTest, EvaluateFailuresBitIdenticalAcrossWorkerCounts) {
  for (const Graph& g : {make_diamond(), make_ring(8), make_ring_with_chords(12)}) {
    const ClassedTraffic traffic = make_traffic(g, 3);
    const Evaluator ev(g, traffic, {});
    WeightSetting w(g.num_links());
    Rng rng(11);
    randomize_weights(w, 30, rng);
    const std::vector<FailureScenario> scenarios = all_link_failures(g);

    ThreadPool one(1);
    ThreadPool eight(8);
    const auto seq = ev.evaluate_failures(w, scenarios, &one, EvalDetail::kFull);
    const auto par = ev.evaluate_failures(w, scenarios, &eight, EvalDetail::kFull);
    const auto none = ev.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
    ASSERT_EQ(seq.size(), scenarios.size());
    ASSERT_EQ(par.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      expect_results_identical(seq[i], par[i]);
      expect_results_identical(seq[i], none[i]);
      // The batch API must also match the one-at-a-time entry point.
      expect_results_identical(seq[i], ev.evaluate(w, scenarios[i], EvalDetail::kFull));
    }
  }
}

TEST(DeterminismTest, SweepBitIdenticalIncludingEarlyAbort) {
  const Graph g = make_ring_with_chords(12);
  const ClassedTraffic traffic = make_traffic(g, 5);
  const Evaluator ev(g, traffic, {});
  WeightSetting w(g.num_links());
  Rng rng(17);
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(g);

  ThreadPool eight(8);
  const SweepResult seq = ev.sweep(w, scenarios);
  const SweepResult par = ev.sweep(w, scenarios, {.pool = &eight});
  EXPECT_EQ(seq.lambda, par.lambda);
  EXPECT_EQ(seq.phi, par.phi);
  EXPECT_EQ(seq.aborted, par.aborted);
  EXPECT_EQ(seq.scenarios_evaluated, par.scenarios_evaluated);

  // A bound between 0 and the full sum forces an early abort: the parallel
  // sweep must stop at the same scenario with the same partial sums.
  const CostPair bound{seq.lambda / 2.0, seq.phi / 2.0};
  const SweepResult seq_aborted = ev.sweep(w, scenarios, {.abort_bound = &bound});
  const SweepResult par_aborted =
      ev.sweep(w, scenarios, {.abort_bound = &bound, .pool = &eight});
  EXPECT_EQ(seq_aborted.aborted, par_aborted.aborted);
  EXPECT_EQ(seq_aborted.lambda, par_aborted.lambda);
  EXPECT_EQ(seq_aborted.phi, par_aborted.phi);
  EXPECT_EQ(seq_aborted.scenarios_evaluated, par_aborted.scenarios_evaluated);
}

OptimizeResult run_optimizer(const Evaluator& ev, int num_threads, SamplingMode mode) {
  OptimizerConfig config = default_optimizer_config(Effort::kSmoke, /*seed=*/42);
  config.num_threads = num_threads;
  config.sampling_mode = mode;
  RobustOptimizer opt(ev, config);
  return opt.optimize();
}

void expect_optimizer_output_identical(const OptimizeResult& a, const OptimizeResult& b) {
  // Everything except wall-clock timings must match bit-for-bit.
  EXPECT_EQ(a.regular, b.regular);
  EXPECT_EQ(a.regular_cost.lambda, b.regular_cost.lambda);
  EXPECT_EQ(a.regular_cost.phi, b.regular_cost.phi);
  EXPECT_EQ(a.robust, b.robust);
  EXPECT_EQ(a.robust_normal_cost.lambda, b.robust_normal_cost.lambda);
  EXPECT_EQ(a.robust_normal_cost.phi, b.robust_normal_cost.phi);
  EXPECT_EQ(a.robust_kfail.lambda, b.robust_kfail.lambda);
  EXPECT_EQ(a.robust_kfail.phi, b.robust_kfail.phi);
  EXPECT_EQ(a.critical, b.critical);
  EXPECT_EQ(a.criticality_converged, b.criticality_converged);
  EXPECT_EQ(a.estimates.rho_lambda, b.estimates.rho_lambda);
  EXPECT_EQ(a.estimates.rho_phi, b.estimates.rho_phi);
  EXPECT_EQ(a.phase1a_samples, b.phase1a_samples);
  EXPECT_EQ(a.phase1b_samples, b.phase1b_samples);
  EXPECT_EQ(a.phase1_evaluations, b.phase1_evaluations);
  EXPECT_EQ(a.phase2_evaluations, b.phase2_evaluations);
  EXPECT_EQ(a.phase2_scenario_evaluations, b.phase2_scenario_evaluations);
  EXPECT_EQ(a.phase1_diversifications, b.phase1_diversifications);
  EXPECT_EQ(a.phase2_diversifications, b.phase2_diversifications);
}

TEST(DeterminismTest, OptimizerBitIdenticalAcrossThreadCountsExactMode) {
  const Graph g = make_ring_with_chords(10);
  const ClassedTraffic traffic = make_traffic(g, 7);
  const Evaluator ev(g, traffic, {});
  const OptimizeResult seq = run_optimizer(ev, 1, SamplingMode::kExactFailure);
  const OptimizeResult par = run_optimizer(ev, 8, SamplingMode::kExactFailure);
  expect_optimizer_output_identical(seq, par);
}

TEST(DeterminismTest, OptimizerBitIdenticalAcrossThreadCountsEmulatedMode) {
  const Graph g = make_diamond();
  const ClassedTraffic traffic = make_traffic(g, 9);
  const Evaluator ev(g, traffic, {});
  const OptimizeResult seq = run_optimizer(ev, 1, SamplingMode::kEmulatedWeights);
  const OptimizeResult par = run_optimizer(ev, 4, SamplingMode::kEmulatedWeights);
  expect_optimizer_output_identical(seq, par);
}

TEST(DeterminismTest, CatalogObjectivesBitIdenticalAcrossThreadCounts) {
  // Tiny enough for the sanitizer smoke suites: Phase 2 screens candidates
  // against constraints (5)/(6) concurrently for every aggregation mode.
  const Graph g = make_ring_with_chords(8);
  const ClassedTraffic traffic = make_traffic(g, 13);
  const Evaluator ev(g, traffic, {});
  HardeningObjective objective;
  Rng catalog_rng(5);
  for (FailureScenario& s : sample_k_link_failures(g, 2, 4, catalog_rng))
    objective.set.add(std::move(s));

  for (const AggregationMode mode :
       {AggregationMode::kExpectedCost, AggregationMode::kWeightedPercentile,
        AggregationMode::kExpectedDowntime}) {
    SCOPED_TRACE(to_string(mode));
    objective.mode = mode;
    const auto run = [&](int num_threads) {
      OptimizerConfig config = default_optimizer_config(Effort::kSmoke, /*seed=*/23);
      config.phase1 = {4, 1, 0.01, 0};
      config.phase2 = {4, 1, 0.01, 0};
      config.max_phase1b_samples = 40;
      config.objective = objective;
      config.num_threads = num_threads;
      return RobustOptimizer(ev, config).optimize();
    };
    const OptimizeResult seq = run(1);
    const OptimizeResult par = run(4);
    EXPECT_GT(seq.phase2_scenario_evaluations, 0);
    expect_optimizer_output_identical(seq, par);
    EXPECT_EQ(seq.critical_scenarios, par.critical_scenarios);
    EXPECT_EQ(seq.robust_objective_value, par.robust_objective_value);
  }
}

}  // namespace
}  // namespace dtr
