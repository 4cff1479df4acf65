#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "core/criticality.h"
#include "core/rank_convergence.h"
#include "routing/failures.h"
#include "telemetry/telemetry.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace dtr {
namespace {

// ------------------------------------------------------- RankTracker

TEST(RankTrackerTest, RanksDescendingWithTies) {
  const std::vector<double> v{5.0, 9.0, 1.0, 9.0};
  const auto rank = criticality_ranks(v);
  EXPECT_EQ(rank[1], 0u);  // 9.0, earliest index wins the tie
  EXPECT_EQ(rank[3], 1u);
  EXPECT_EQ(rank[0], 2u);
  EXPECT_EQ(rank[2], 3u);
}

TEST(RankTrackerTest, FirstUpdateIsZero) {
  RankTracker tracker(2.0);
  EXPECT_DOUBLE_EQ(tracker.update(std::vector<double>{3.0, 1.0, 2.0}), 0.0);
  EXPECT_FALSE(tracker.converged());  // needs two updates
}

TEST(RankTrackerTest, StableRanksConverge) {
  RankTracker tracker(2.0);
  const std::vector<double> v{3.0, 1.0, 2.0};
  tracker.update(v);
  const double s = tracker.update(v);
  EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_TRUE(tracker.converged());
}

TEST(RankTrackerTest, WeightedIndexFormula) {
  RankTracker tracker(2.0);
  tracker.update(std::vector<double>{4.0, 3.0, 2.0, 1.0});  // ranks 0,1,2,3
  // Swap first and last: rank changes are 3,0,0,3 -> S = (9+9)/(3+3) = 3.
  const double s = tracker.update(std::vector<double>{1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s, 3.0);
  EXPECT_FALSE(tracker.converged());  // 3 > e=2
}

TEST(RankTrackerTest, SmallChurnConverges) {
  RankTracker tracker(2.0);
  tracker.update(std::vector<double>{4.0, 3.0, 2.0, 1.0});
  // Adjacent swap: changes 1,1,0,0 -> S = 2/2 = 1 <= 2.
  const double s = tracker.update(std::vector<double>{3.0, 4.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(s, 1.0);
  EXPECT_TRUE(tracker.converged());
}

TEST(RankTrackerTest, EmphasizesLargeMoves) {
  // One link moving far dominates many links moving slightly: the gamma
  // weighting makes S close to the large move.
  RankTracker tracker(2.0);
  std::vector<double> v(10);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 10.0 - static_cast<double>(i);
  tracker.update(v);
  // Move the last element to the front (rank change 9 for it, 1 for others).
  std::vector<double> shifted = v;
  shifted[9] = 11.0;
  const double s = tracker.update(shifted);
  // Changes: 9 for link 9, 1 for the rest: S = (81+9)/(9+9) = 5.
  EXPECT_DOUBLE_EQ(s, 5.0);
}

TEST(RankTrackerTest, SizeChangeRejected) {
  RankTracker tracker(2.0);
  tracker.update(std::vector<double>{1.0, 2.0});
  EXPECT_THROW(tracker.update(std::vector<double>{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(RankTrackerTest, NegativeThresholdRejected) {
  EXPECT_THROW(RankTracker(-1.0), std::invalid_argument);
}

// ------------------------------------------------------- collector

CriticalityParams quick_params() {
  CriticalityParams p;
  p.tau = 2;
  return p;
}

TEST(CollectorTest, RhoIsMeanMinusLeftTail) {
  CriticalityCollector collector(2, 100, 100.0, quick_params(), 1);
  // Link 0: wide distribution; link 1: narrow (constant).
  for (int i = 1; i <= 20; ++i)
    collector.add_sample(0, {static_cast<double>(10 * i), 0.0});
  for (int i = 0; i < 20; ++i) collector.add_sample(1, {100.0, 0.0});
  const auto est = collector.estimates();
  // Link 0: mean 105, left tail (10%) = {10,20} mean 15 -> rho = 90.
  EXPECT_NEAR(est.mean_lambda[0], 105.0, 1e-9);
  EXPECT_NEAR(est.tail_lambda[0], 15.0, 1e-9);
  EXPECT_NEAR(est.rho_lambda[0], 90.0, 1e-9);
  // Link 1: constant distribution -> rho 0.
  EXPECT_NEAR(est.rho_lambda[1], 0.0, 1e-9);
}

TEST(CollectorTest, WideDistributionMoreCritical) {
  // Fig. 2(b): same mean, wider spread -> more critical.
  CriticalityCollector collector(2, 100, 100.0, quick_params(), 1);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    collector.add_sample(0, {std::max(0.0, rng.normal(100.0, 40.0)), 0.0});
    collector.add_sample(1, {std::max(0.0, rng.normal(100.0, 4.0)), 0.0});
  }
  const auto est = collector.estimates();
  EXPECT_GT(est.rho_lambda[0], 3.0 * est.rho_lambda[1]);
}

TEST(CollectorTest, ObserverFiltersByWeightWindow) {
  CriticalityCollector collector(3, 100, 100.0, quick_params(), 1);
  EXPECT_EQ(collector.emulation_weight_floor(), 70);
  PerturbationEvent inside{1, 80, 95, {0.0, 10.0}, {0.0, 10.0}, CostPair{5.0, 20.0}, false};
  PerturbationEvent below_delay{1, 60, 95, {0.0, 10.0}, {0.0, 10.0}, CostPair{5.0, 20.0}, false};
  PerturbationEvent below_tput{1, 95, 69, {0.0, 10.0}, {0.0, 10.0}, CostPair{5.0, 20.0}, false};
  collector.on_perturbation(inside);
  collector.on_perturbation(below_delay);
  collector.on_perturbation(below_tput);
  EXPECT_EQ(collector.sample_count(1), 1u);
  EXPECT_EQ(collector.total_samples(), 1u);
}

TEST(CollectorTest, ObserverFiltersByAcceptability) {
  CriticalityCollector collector(2, 100, 100.0, quick_params(), 1);
  const CostPair best{10.0, 100.0};
  // Acceptable: Lambda <= 10 + 0.5*100 = 60; Phi <= 1.2*100 = 120.
  PerturbationEvent ok{0, 90, 90, {55.0, 115.0}, best, CostPair{500.0, 500.0}, false};
  PerturbationEvent bad_lambda{0, 90, 90, {61.0, 100.0}, best, CostPair{1.0, 1.0}, false};
  PerturbationEvent bad_phi{0, 90, 90, {10.0, 121.0}, best, CostPair{1.0, 1.0}, false};
  collector.on_perturbation(ok);
  collector.on_perturbation(bad_lambda);
  collector.on_perturbation(bad_phi);
  EXPECT_EQ(collector.sample_count(0), 1u);
  // The recorded sample is the post-perturbation cost.
  const auto est = collector.estimates();
  EXPECT_DOUBLE_EQ(est.mean_lambda[0], 500.0);
}

TEST(CollectorTest, ObserverIgnoresInfeasible) {
  CriticalityCollector collector(2, 100, 100.0, quick_params(), 1);
  PerturbationEvent infeasible{0, 90, 90, {0.0, 0.0}, {0.0, 0.0}, std::nullopt, false};
  collector.on_perturbation(infeasible);
  EXPECT_EQ(collector.total_samples(), 0u);
}

TEST(CollectorTest, ConvergenceAfterStableTauUpdates) {
  CriticalityParams p = quick_params();  // tau=2, 2 links -> update every 4 samples
  CriticalityCollector collector(2, 100, 100.0, p, 1);
  // Deterministic, stable distributions: ranks never move.
  for (int round = 0; round < 4; ++round) {
    collector.add_sample(0, {100.0 + (round % 3), 0.0});
    collector.add_sample(0, {200.0, 0.0});
    collector.add_sample(1, {10.0, 0.0});
    collector.add_sample(1, {11.0, 0.0});
  }
  EXPECT_GE(collector.rank_updates(), 2u);
  EXPECT_TRUE(collector.converged());
}

TEST(CollectorTest, ReservoirCapsMemory) {
  CriticalityParams p = quick_params();
  p.max_samples_per_link = 50;
  CriticalityCollector collector(1, 100, 100.0, p, 1);
  for (int i = 0; i < 500; ++i) collector.add_sample(0, {static_cast<double>(i), 0.0});
  EXPECT_EQ(collector.sample_count(0), 50u);
  EXPECT_EQ(collector.total_samples(), 500u);
}

TEST(CollectorTest, LinksBySampleNeedOrdering) {
  CriticalityCollector collector(3, 100, 100.0, quick_params(), 1);
  collector.add_sample(2, {1.0, 1.0});
  collector.add_sample(2, {1.0, 1.0});
  collector.add_sample(0, {1.0, 1.0});
  const auto order = collector.links_by_sample_need();
  EXPECT_EQ(order[0], 1u);  // zero samples first
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 2u);
}

TEST(CollectorTest, Validation) {
  EXPECT_THROW(CriticalityCollector(0, 100, 100.0, quick_params(), 1),
               std::invalid_argument);
  CriticalityParams bad_q = quick_params();
  bad_q.q = 1.5;
  EXPECT_THROW(CriticalityCollector(2, 100, 100.0, bad_q, 1), std::invalid_argument);
  CriticalityCollector c(2, 100, 100.0, quick_params(), 1);
  EXPECT_THROW(c.add_sample(5, {1.0, 1.0}), std::out_of_range);
}

// ------------------------------------------------------- Phase 1b top-up

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i])) << i;
}

TEST(TopUpTest, ExactModeEvaluatesEachDistinctPairOnce) {
  // A pool of three settings over a 10-node catalog repeats (entry, link)
  // pairs many times. The top-up must feed exactly the samples of a loop that
  // evaluates every draw, while evaluating each distinct pair once.
  const test::TestInstance inst = test::make_test_instance(10, 4.0, 17);
  telemetry::Registry reg;
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {.telemetry = &reg});
  const Evaluator oracle(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  std::vector<AcceptableStore::Entry> storage;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    storage.push_back({test::random_weights(inst.graph, 20, seed), {}});
  std::vector<const AcceptableStore::Entry*> entries;
  for (const auto& entry : storage) entries.push_back(&entry);
  const CriticalityParams params = quick_params();
  const long budget = 300;

  CriticalityCollector collector(scenarios.size(), 20, 100.0, params, 5);
  Rng rng(9);
  const TopUpCounts counts = top_up_criticality_samples(
      ev, collector, scenarios, entries, SamplingMode::kExactFailure, 20, budget, rng);

  // The reference: the same draws, one evaluation per draw.
  CriticalityCollector reference(scenarios.size(), 20, 100.0, params, 5);
  Rng ref_rng(9);
  long drawn = 0;
  std::set<std::pair<std::size_t, LinkId>> distinct;
  while (!reference.converged() && drawn < budget) {
    for (const LinkId l : reference.links_by_sample_need()) {
      if (reference.converged() || drawn >= budget) break;
      const std::size_t e = ref_rng.uniform_index(entries.size());
      distinct.insert({e, l});
      reference.add_sample(l, oracle.evaluate(entries[e]->setting, scenarios[l]).cost());
      ++drawn;
    }
  }

  EXPECT_EQ(counts.drawn, drawn);
  EXPECT_EQ(counts.evaluated, static_cast<long>(distinct.size()));
  EXPECT_LT(counts.evaluated, counts.drawn);
  EXPECT_EQ(reg.snapshot(telemetry::Plane::kDeterministic).counter("eval.scenarios"),
            distinct.size());
  EXPECT_EQ(collector.converged(), reference.converged());
  const CriticalityEstimates got = collector.estimates();
  const CriticalityEstimates want = reference.estimates();
  expect_bits_equal(got.rho_lambda, want.rho_lambda);
  expect_bits_equal(got.rho_phi, want.rho_phi);
  expect_bits_equal(got.mean_lambda, want.mean_lambda);
  expect_bits_equal(got.tail_phi, want.tail_phi);
  EXPECT_EQ(criticality_ranks(got.rho_lambda), criticality_ranks(want.rho_lambda));
  EXPECT_EQ(criticality_ranks(got.rho_phi), criticality_ranks(want.rho_phi));
  // Both RNG streams consumed the same draws.
  EXPECT_EQ(rng.uniform_index(1u << 30), ref_rng.uniform_index(1u << 30));
}

}  // namespace
}  // namespace dtr
