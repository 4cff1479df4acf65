/// BaseRoutingCache behavior: the weights-keyed LRU cache on the Evaluator
/// is pure acceleration state — these tests pin down its invalidation
/// semantics (value-keyed lookup vs weight mutation, per-instance isolation
/// for topology/TM changes, the LRU eviction bound, explicit invalidation),
/// its retention policy (donor refresh, the pinned incumbent) and that hits
/// never change a single result byte.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "test_helpers.h"
#include "traffic/scaling.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

using test::expect_results_identical;
using test::make_test_instance;
using test::random_weights;
using test::TestInstance;

TEST(BaseCacheTest, RepeatedSweepsReuseOneBase) {
  const TestInstance inst = make_test_instance(12, 4.0, 7);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator oracle(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const WeightSetting w = random_weights(inst.graph, 30, 11);

  const SweepResult reference = oracle.sweep(w, scenarios);
  const SweepResult first = ev.sweep(w, scenarios);
  const EvaluatorCacheStats after_first = ev.base_cache_stats();
  EXPECT_EQ(after_first.insertions, 1u);

  // The optimizer's inner-loop pattern: evaluate + repeated sweeps of the
  // same weights. Everything after the first sweep hits.
  const EvalResult normal = ev.evaluate(w);
  const SweepResult second = ev.sweep(w, scenarios);
  const EvaluatorCacheStats after = ev.base_cache_stats();
  EXPECT_GE(after.hits, 2u);
  EXPECT_EQ(after.insertions, 1u);

  EXPECT_EQ(reference.lambda, first.lambda);
  EXPECT_EQ(reference.phi, first.phi);
  EXPECT_EQ(first.lambda, second.lambda);
  EXPECT_EQ(first.phi, second.phi);
  EXPECT_EQ(normal.lambda, oracle.evaluate(w).lambda);
}

TEST(BaseCacheTest, WeightMutationNeverServesStale) {
  // The cache keys on the weight VECTOR, so mutating a caller's setting is
  // a different key — the mutated setting must evaluate fresh, and flipping
  // the weights back must hit the original entry with identical bytes.
  const TestInstance inst = make_test_instance(10, 4.0, 13);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});

  WeightSetting w = random_weights(inst.graph, 30, 17);
  const EvalResult before = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(before,
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));

  const int old_delay = w.get(TrafficClass::kDelay, 0);
  w.set(TrafficClass::kDelay, 0, old_delay == 30 ? 29 : old_delay + 1);
  const EvalResult mutated = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(mutated,
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));

  w.set(TrafficClass::kDelay, 0, old_delay);
  const EvalResult restored = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(restored, before);
  EXPECT_GE(ev.base_cache_stats().hits, 1u);
  EXPECT_GE(ev.base_cache_stats().insertions, 2u);
}

TEST(BaseCacheTest, TrafficChangeUsesSeparateCache) {
  // The cache lives on the Evaluator, whose graph/traffic are immutable: a
  // topology or TM change means a new Evaluator and therefore a new cache.
  // Same weights on different traffic must produce their own (different)
  // results with independent counters.
  const TestInstance inst = make_test_instance(10, 4.0, 19);
  TestInstance heavier = inst;
  scale_to_utilization(heavier.graph, heavier.traffic,
                       {UtilizationTarget::Kind::kAverage, 0.8});

  const Evaluator light_ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator heavy_ev(heavier.graph, heavier.traffic, heavier.params, {});
  const WeightSetting w = random_weights(inst.graph, 30, 23);

  const EvalResult light = light_ev.evaluate(w);
  const EvalResult heavy = heavy_ev.evaluate(w);
  EXPECT_NE(light.phi, heavy.phi);  // scaled traffic must change congestion
  EXPECT_EQ(light_ev.base_cache_stats().insertions, 1u);
  EXPECT_EQ(heavy_ev.base_cache_stats().insertions, 1u);
  EXPECT_EQ(light_ev.base_cache_size(), 1u);
  EXPECT_EQ(heavy_ev.base_cache_size(), 1u);
}

TEST(BaseCacheTest, LruEvictionRespectsCapacityBound) {
  const TestInstance inst = make_test_instance(10, 4.0, 29);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});

  // Random settings differ on many links, so none is donor-patched and each
  // is its own entry.
  const std::uint64_t keys = kBaseCacheCapacity + 3;
  for (std::uint64_t seed = 1; seed <= keys; ++seed)
    ev.evaluate(random_weights(inst.graph, 30, seed));
  EXPECT_EQ(ev.base_cache_size(), kBaseCacheCapacity);
  const EvaluatorCacheStats stats = ev.base_cache_stats();
  EXPECT_EQ(stats.insertions, keys);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.weight_patched, 0u);

  // LRU: the most recent key must still be resident (a hit, no insertion).
  ev.evaluate(random_weights(inst.graph, 30, keys));
  EXPECT_EQ(ev.base_cache_stats().insertions, keys);
  EXPECT_GE(ev.base_cache_stats().hits, 1u);

  // The evicted oldest key re-inserts (and evicts again).
  ev.evaluate(random_weights(inst.graph, 30, 1));
  EXPECT_EQ(ev.base_cache_stats().insertions, keys + 1);
  EXPECT_EQ(ev.base_cache_stats().evictions, 4u);
  EXPECT_EQ(ev.base_cache_size(), kBaseCacheCapacity);
}

TEST(BaseCacheTest, ExplicitInvalidationDropsEntries) {
  const TestInstance inst = make_test_instance(10, 4.0, 31);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const WeightSetting w = random_weights(inst.graph, 30, 37);

  const EvalResult before = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  EXPECT_EQ(ev.base_cache_size(), 1u);
  ev.invalidate_base_cache();
  EXPECT_EQ(ev.base_cache_size(), 0u);

  // Fresh rebuild, identical bytes.
  const EvalResult after = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  expect_results_identical(before, after);
  EXPECT_EQ(ev.base_cache_stats().insertions, 2u);
}

TEST(BaseCacheTest, ConcurrentSpeculativeEvaluationsStayConsistent) {
  // The LocalSearch speculative-scoring pattern: many threads evaluate
  // distinct candidates against one shared evaluator, racing on the cache.
  // Every result must match the full-recompute oracle bit for bit.
  const TestInstance inst = make_test_instance(12, 4.0, 47);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});

  // More candidates than the cache holds, so the racing threads also evict.
  std::vector<WeightSetting> candidates;
  for (std::uint64_t seed = 100; seed < 100 + 2 * kBaseCacheCapacity; ++seed)
    candidates.push_back(random_weights(inst.graph, 30, seed));

  ThreadPool pool(8);
  std::vector<CostPair> got(candidates.size());
  parallel_for(&pool, candidates.size(), [&](std::size_t i) {
    const FailureScenario scenario =
        i % 3 == 0 ? FailureScenario::link(static_cast<LinkId>(i) %
                                           inst.graph.num_links())
                   : FailureScenario::none();
    got[i] = ev.evaluate(candidates[i], scenario).cost();
  });
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const FailureScenario scenario =
        i % 3 == 0 ? FailureScenario::link(static_cast<LinkId>(i) %
                                           inst.graph.num_links())
                   : FailureScenario::none();
    const CostPair want = plain.evaluate(candidates[i], scenario).cost();
    EXPECT_EQ(want.lambda, got[i].lambda);
    EXPECT_EQ(want.phi, got[i].phi);
  }
  EXPECT_LE(ev.base_cache_size(), kBaseCacheCapacity);
}

/// `w` with `link`'s delay weight moved to a different value in [1, wmax].
WeightSetting single_link_probe(const WeightSetting& w, LinkId link, int wmax) {
  WeightSetting probe = w;
  const int old = w.get(TrafficClass::kDelay, link);
  probe.set(TrafficClass::kDelay, link, old == wmax ? 1 : old + 1);
  return probe;
}

TEST(BaseCacheTest, DonorUseKeepsIncumbentCached) {
  // The local-search pattern: many consecutive single-link probes of ONE
  // incumbent, each on a different link, so no probe is a donor for
  // another. Serving as their donor must keep the incumbent from being
  // evicted by them: every probe is donor-patched, none rebuilt.
  const TestInstance inst = make_test_instance(12, 4.0, 53);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const std::size_t probes = kBaseCacheCapacity + 4;
  ASSERT_GE(inst.graph.num_links(), probes);

  const WeightSetting incumbent = random_weights(inst.graph, 30, 59);
  ev.evaluate(incumbent);
  for (LinkId l = 0; l < probes; ++l) {
    const WeightSetting probe = single_link_probe(incumbent, l, 30);
    expect_results_identical(ev.evaluate(probe), plain.evaluate(probe));
  }
  const EvaluatorCacheStats stats = ev.base_cache_stats();
  EXPECT_EQ(stats.misses, probes + 1);
  EXPECT_EQ(stats.weight_patched, probes);

  ev.evaluate(incumbent);
  EXPECT_EQ(ev.base_cache_stats().hits, stats.hits + 1);
  EXPECT_EQ(ev.base_cache_stats().insertions, stats.insertions);
}

TEST(BaseCacheTest, PinnedIncumbentSurvivesUntilReleased) {
  const TestInstance inst = make_test_instance(10, 4.0, 61);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting pinned = random_weights(inst.graph, 30, 67);
  const WeightSetting next = random_weights(inst.graph, 30, 71);

  // Pinning a missing setting builds its base: one miss, one insertion.
  ev.pin_incumbent(pinned);
  EXPECT_EQ(ev.base_cache_stats().misses, 1u);
  EXPECT_EQ(ev.base_cache_stats().insertions, 1u);
  // Re-pinning a cached setting is neither a hit nor a miss.
  ev.pin_incumbent(pinned);
  EXPECT_EQ(ev.base_cache_stats().hits, 0u);
  EXPECT_EQ(ev.base_cache_stats().misses, 1u);

  // Unrelated settings (many links apart: no donor patching) churn the LRU
  // twice over; the pinned entry stays and serves identical bytes.
  for (std::uint64_t seed = 1000; seed < 1000 + 2 * kBaseCacheCapacity; ++seed)
    ev.evaluate(random_weights(inst.graph, 30, seed));
  EXPECT_EQ(ev.base_cache_size(), kBaseCacheCapacity);
  const EvaluatorCacheStats churned = ev.base_cache_stats();
  expect_results_identical(ev.evaluate(pinned, FailureScenario::none(), EvalDetail::kFull),
                           plain.evaluate(pinned, FailureScenario::none(), EvalDetail::kFull));
  EXPECT_EQ(ev.base_cache_stats().hits, churned.hits + 1);
  EXPECT_EQ(ev.base_cache_stats().insertions, churned.insertions);

  // Pinning another setting releases the first to plain LRU.
  ev.pin_incumbent(next);
  for (std::uint64_t seed = 2000; seed < 2000 + kBaseCacheCapacity; ++seed)
    ev.evaluate(random_weights(inst.graph, 30, seed));
  const EvaluatorCacheStats released = ev.base_cache_stats();
  ev.evaluate(pinned);
  EXPECT_EQ(ev.base_cache_stats().misses, released.misses + 1);
  ev.evaluate(next);
  EXPECT_EQ(ev.base_cache_stats().hits, released.hits + 1);
}

TEST(BaseCacheTest, PhiFirstBaseLaterServesIdenticalBytes) {
  // A base first built by a Phi-rejected screen has never run its delay DP.
  // Served later — costs only and kFull — it must match a fresh evaluator.
  const TestInstance inst = make_test_instance(12, 4.0, 89);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator fresh(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting w = random_weights(inst.graph, 30, 97);

  ASSERT_FALSE(ev.evaluate_phi_first(w, 0.0).has_value());
  EXPECT_EQ(ev.base_cache_stats().insertions, 1u);
  expect_results_identical(ev.evaluate(w), fresh.evaluate(w));
  expect_results_identical(ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull),
                           plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull));
  EXPECT_EQ(ev.base_cache_stats().hits, 2u);
  EXPECT_EQ(ev.base_cache_stats().insertions, 1u);

  // A failure evaluation patched from such a base is unaffected too.
  const WeightSetting v = random_weights(inst.graph, 30, 101);
  ASSERT_FALSE(ev.evaluate_phi_first(v, 0.0).has_value());
  const FailureScenario failure = FailureScenario::link(3);
  expect_results_identical(ev.evaluate(v, failure, EvalDetail::kFull),
                           plain.evaluate(v, failure, EvalDetail::kFull));
}

TEST(BaseCacheTest, ConcurrentLambdaReadsOfOneFreshBase) {
  // Four threads serve the no-failure result of one base whose Lambda side
  // has not been computed yet (a pin builds none), racing into its
  // call_once. Every thread must read the oracle's bytes.
  const TestInstance inst = make_test_instance(12, 4.0, 103);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting w = random_weights(inst.graph, 30, 107);
  const EvalResult want = plain.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  ev.pin_incumbent(w);

  std::vector<EvalResult> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i)
    threads.emplace_back([&, i] {
      got[i] = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
    });
  for (std::thread& t : threads) t.join();
  for (const EvalResult& r : got) expect_results_identical(r, want);
  EXPECT_EQ(ev.base_cache_stats().insertions, 1u);
}

TEST(BaseCacheTest, PinIsNoOpWithoutIncrementalPath) {
  const TestInstance inst = make_test_instance(10, 4.0, 73);
  const Evaluator plain(inst.graph, inst.traffic, inst.params, {.incremental = false});
  const WeightSetting w = random_weights(inst.graph, 30, 79);
  plain.pin_incumbent(w);
  EXPECT_EQ(plain.base_cache_size(), 0u);
  const EvaluatorCacheStats stats = plain.base_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions + stats.weight_patched, 0u);
}

TEST(BaseCacheTest, OptimizerProbesAreDonorPatched) {
  // End to end at 1 thread, where cache counters are deterministic: with the
  // incumbent held in the cache (donor refresh + the pin on every adoption),
  // almost every probe's miss patches from it. Losing either half of that
  // policy turns thousands of probes into scratch builds.
  const TestInstance inst = make_test_instance(12, 4.0, 83, 0.55);
  const Evaluator ev(inst.graph, inst.traffic, inst.params, {});
  OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 83);
  config.wmax = 60;
  RobustOptimizer(ev, config).optimize();
  const EvaluatorCacheStats stats = ev.base_cache_stats();
  ASSERT_GT(stats.misses, 0u);
  EXPECT_GE(static_cast<double>(stats.weight_patched), 0.95 * static_cast<double>(stats.misses))
      << "misses=" << stats.misses << " donor-patched=" << stats.weight_patched;
}

}  // namespace
}  // namespace dtr
