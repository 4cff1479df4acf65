/// Incremental vs full failure evaluation: EvaluatorConfig::incremental is a
/// pure execution knob. These tests enforce the PR's acceptance contract —
/// bit-identical FailureProfile / EvalResult bytes between the delta-SPF
/// fast path and the full recompute, across randomized topologies, weight
/// settings (random and the tie-heavy min-hop setting), every single-link
/// failure, and 1 vs 8 worker threads.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/metrics.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::expect_results_identical;
using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

/// The min-hop setting (every weight 1): the most equal-distance ties a
/// topology admits, so the sweep's tie order carries the most weight here.
WeightSetting min_hop(const Graph& g) { return WeightSetting(g.num_links(), 1); }

/// Bitwise comparison: double == would accept -0.0 vs 0.0 and miss NaN, so
/// the profile vectors are compared as raw bytes.
void expect_profile_bytes_identical(const FailureProfile& a, const FailureProfile& b) {
  ASSERT_EQ(a.violations.size(), b.violations.size());
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  ASSERT_EQ(a.phi.size(), b.phi.size());
  const auto bytes_equal = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.empty() ||
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(bytes_equal(a.violations, b.violations));
  EXPECT_TRUE(bytes_equal(a.lambda, b.lambda));
  EXPECT_TRUE(bytes_equal(a.phi, b.phi));
  EXPECT_EQ(a.phi_uncap, b.phi_uncap);
}

TEST(IncrementalTest, FailureProfileBytesMatchFullPathAcrossInstances) {
  // Randomized topologies x weight settings x all single-link failures.
  struct Case {
    int nodes;
    double degree;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{10, 4.0, 7}, Case{14, 5.0, 19}, Case{18, 3.0, 31}}) {
    const TestInstance inst = make_test_instance(c.nodes, c.degree, c.seed);
    const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                                {.incremental = true});
    const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
    const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);

    ThreadPool one(1);
    ThreadPool eight(8);
    for (const WeightSetting& w : {random_weights(inst.graph, 30, c.seed + 1),
                                   random_weights(inst.graph, 30, c.seed + 2),
                                   min_hop(inst.graph)}) {
      const FailureProfile reference = profile_failures(full, w, scenarios, &one);
      expect_profile_bytes_identical(reference,
                                     profile_failures(incremental, w, scenarios, &one));
      expect_profile_bytes_identical(reference,
                                     profile_failures(incremental, w, scenarios, &eight));
      expect_profile_bytes_identical(reference,
                                     profile_failures(full, w, scenarios, &eight));
    }
  }
}

TEST(IncrementalTest, FullDetailMatchesOnBridgeTopology) {
  // Path-like topology: failures disconnect demand, exercising the
  // disconnection replay subtotals at kFull detail.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 200.0, 1.0);
  g.add_link(1, 3, 200.0, 1.0);  // one alternative, so not everything severs
  TrafficMatrix total = make_gravity_traffic(g, {1.0, 1.0, 11});
  const ClassedTraffic traffic = split_by_class(total, 0.30);

  const Evaluator incremental(g, traffic, {}, {.incremental = true});
  const Evaluator full(g, traffic, {}, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(g);
  for (const WeightSetting& w : {random_weights(g, 20, 5), min_hop(g)}) {
    const auto inc = incremental.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
    const auto ref = full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
    ASSERT_EQ(inc.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_results_identical(inc[i], ref[i]);
  }
}

TEST(IncrementalTest, MixedScenarioKindsMatchFullPath) {
  // Node failures must fall back to the full path inside an otherwise
  // incremental batch; link pairs ride the delta update with 4 dead arcs.
  const TestInstance inst = make_test_instance(12, 4.0, 13);
  const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                              {.incremental = true});
  const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});

  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (LinkId l = 0; l < inst.graph.num_links(); l += 2)
    scenarios.push_back(FailureScenario::link(l));
  for (NodeId v = 0; v < inst.graph.num_nodes(); v += 3)
    scenarios.push_back(FailureScenario::node(v));
  for (LinkId l = 0; l + 4 < inst.graph.num_links(); l += 5)
    scenarios.push_back(FailureScenario::compound({l, l + 4}));

  ThreadPool eight(8);
  for (const WeightSetting& w : {random_weights(inst.graph, 25, 99), min_hop(inst.graph)}) {
    const auto inc = incremental.evaluate_failures(w, scenarios, &eight, EvalDetail::kFull);
    const auto ref = full.evaluate_failures(w, scenarios, nullptr, EvalDetail::kFull);
    ASSERT_EQ(inc.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_results_identical(inc[i], ref[i]);
  }
}

TEST(IncrementalTest, SweepMatchesFullPathIncludingEarlyAbort) {
  const TestInstance inst = make_test_instance(12, 4.0, 17);
  const Evaluator incremental(inst.graph, inst.traffic, inst.params,
                              {.incremental = true});
  const Evaluator full(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  ThreadPool eight(8);

  for (const WeightSetting& w : {random_weights(inst.graph, 30, 23), min_hop(inst.graph)}) {
    const SweepResult ref = full.sweep(w, scenarios);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &eight}) {
      const SweepResult inc = incremental.sweep(w, scenarios, {.pool = pool});
      EXPECT_EQ(ref.lambda, inc.lambda);
      EXPECT_EQ(ref.phi, inc.phi);
      EXPECT_EQ(ref.scenarios_evaluated, inc.scenarios_evaluated);
    }

    const CostPair bound{ref.lambda / 2.0, ref.phi / 2.0};
    const SweepResult ref_aborted = full.sweep(w, scenarios, {.abort_bound = &bound});
    const SweepResult inc_aborted =
        incremental.sweep(w, scenarios, {.abort_bound = &bound, .pool = &eight});
    EXPECT_EQ(ref_aborted.aborted, inc_aborted.aborted);
    EXPECT_EQ(ref_aborted.lambda, inc_aborted.lambda);
    EXPECT_EQ(ref_aborted.phi, inc_aborted.phi);
    EXPECT_EQ(ref_aborted.scenarios_evaluated, inc_aborted.scenarios_evaluated);
  }
}

TEST(IncrementalTest, ConfigDefaultsToIncremental) {
  const TestInstance inst = make_test_instance(8, 3.0, 3);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  EXPECT_TRUE(ev.config().incremental);
  EXPECT_EQ(ev.config().telemetry, nullptr);
  EXPECT_EQ(kBaseCacheCapacity, 16u);
  EXPECT_EQ(kWeightDeltaMaxLinks, 1u);
  EXPECT_EQ(kIncrementalMaxAffectedFraction, 0.25);
}

TEST(IncrementalTest, WeightDeltaDonorBaseMatchesScratchBuild) {
  // Phase-1 probe shape: an incumbent's base is cached, then neighbors
  // differing on one link are evaluated. The incremental evaluator patches
  // each probe's base from the incumbent (delta-SPF over the weight change);
  // the reference oracle recomputes everything. Every result — no-failure,
  // every single link, a compound scenario, kFull detail — must be identical
  // field for field.
  const TestInstance inst = make_test_instance(12, 4.0, 57);
  const Evaluator reference(inst.graph, inst.traffic, inst.params, {.incremental = false});

  std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  scenarios.insert(scenarios.begin(), FailureScenario::none());
  scenarios.push_back(FailureScenario::compound({0, 2, 3}));

  for (const WeightSetting& incumbent :
       {random_weights(inst.graph, 20, 91), min_hop(inst.graph)}) {
    const Evaluator with_donor(inst.graph, inst.traffic, inst.params, {});
    for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
      // A hit on the incumbent keeps it the most recently used entry, so it
      // stays resident (and the donor) across more probes than the cache holds.
      (void)with_donor.evaluate(incumbent);
      WeightSetting probe = incumbent;
      // Increases and decreases both ride the donor patch; odd links change
      // both classes (still ONE differing link).
      const int wd = probe.get(TrafficClass::kDelay, l);
      probe.set(TrafficClass::kDelay, l, wd >= 16 ? 1 : wd + 5);
      if (l % 2 == 1) {
        const int wt = probe.get(TrafficClass::kThroughput, l);
        probe.set(TrafficClass::kThroughput, l, wt >= 18 ? 2 : wt + 3);
      }
      for (const FailureScenario& sc : scenarios) {
        expect_results_identical(with_donor.evaluate(probe, sc, EvalDetail::kFull),
                                 reference.evaluate(probe, sc, EvalDetail::kFull));
      }
    }
    const EvaluatorCacheStats donor_stats = with_donor.base_cache_stats();
    EXPECT_EQ(donor_stats.weight_patched, inst.graph.num_links());
    EXPECT_GT(donor_stats.arcs_updated, 0u);
  }
}

TEST(IncrementalTest, ConfigCornersProduceIdenticalProfiles) {
  // Incremental on/off x {1, 8 threads} must produce the same
  // FailureProfile bytes — the campaign/golden contract.
  const TestInstance inst = make_test_instance(14, 4.0, 83);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const Evaluator reference_ev(inst.graph, inst.traffic, inst.params,
                               {.incremental = false});
  ThreadPool one(1);
  ThreadPool eight(8);

  for (const WeightSetting& w : {random_weights(inst.graph, 30, 97), min_hop(inst.graph)}) {
    const FailureProfile reference = profile_failures(reference_ev, w, scenarios, &one);
    for (const bool incremental : {false, true}) {
      const Evaluator ev(inst.graph, inst.traffic, inst.params, {.incremental = incremental});
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &one));
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &eight));
      // Repeat through the now-warm cache: same bytes again.
      expect_profile_bytes_identical(reference, profile_failures(ev, w, scenarios, &eight));
    }
  }
}

TEST(IncrementalTest, SingleEvaluationMatchesAcrossCacheStates) {
  // evaluate() consults the cache: a failure evaluation served via the
  // patched path (warm cache) must match the cold full path bit for bit,
  // including kFull detail.
  const TestInstance inst = make_test_instance(12, 4.0, 101);
  const Evaluator cached(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});

  for (const WeightSetting& w : {random_weights(inst.graph, 30, 103), min_hop(inst.graph)}) {
    // Warm the cache with the no-failure evaluation, then compare every
    // single-link failure and the no-failure evaluation itself.
    expect_results_identical(cached.evaluate(w, FailureScenario::none(), EvalDetail::kFull),
                             plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));
    EXPECT_GE(cached.base_cache_size(), 1u);
    for (LinkId l = 0; l < inst.graph.num_links(); ++l) {
      const FailureScenario scenario = FailureScenario::link(l);
      expect_results_identical(cached.evaluate(w, scenario, EvalDetail::kFull),
                               plain.evaluate(w, scenario, EvalDetail::kFull));
    }
  }
  EXPECT_GT(cached.base_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace dtr
