/// Differential fuzzer for the incremental evaluation engine.
///
/// Every accelerated path in the repo carries the same contract: results must
/// be BYTE-identical to the full recompute. The unit suites pin that contract
/// on fixed seeds; this harness hammers it with fresh randomness under a time
/// budget — CI passes a per-run seed (echoed below for replay) so every run
/// explores new instances.
///
/// Five layers are fuzzed against their reference implementations:
///   1. delta_spf_update_arcs (weight deltas: increases, decreases, and
///      dead-arc removals, multi-link change lists) vs a full Dijkstra;
///   2. failure-scenario evaluation (single links, link pairs, links-only
///      compound scenarios, node failures) incremental vs full;
///   3. weight-delta donor patching (Phase-1 probe shape: neighbors of a
///      cached incumbent) vs scratch-built bases, plus evaluate_fluctuations
///      per-trial incremental evaluators vs per-trial full recomputes;
///   4. the pinned incumbent: a local-search-shaped walk interleaving
///      pin_incumbent with single-link probes, accepts, restarts and
///      fallbacks to an earlier best, vs the full recompute — and the pinned
///      setting must still be cached whenever the walk returns to it;
///   5. the end-to-end delay DP over the routing's recorded ECMP DAG vs the
///      sorted-order reference DP (reference_delay_dp.h), on routings from
///      compute (dead arcs, skipped nodes), compute_from_base (with and
///      without the forced full-Dijkstra fallback), compute_from_weight_delta
///      and a failure patched from that routing, both delay modes, dense and
///      sparse demand. Layers 2-4 cannot see a DP bug: the fast
///      and the full evaluator run the same DP.
/// Layers 2-5 draw weights up to wmax 2 or 20. Weights in {1, 2} make
/// equal-distance ties common, and ties are where the sweep's order rule
/// decides the bytes: the patch paths' order merge, same-label order reuse
/// and full-Dijkstra fallback then run under the oracle.
///
/// Usage: differential_fuzz [--seed N] [--budget-seconds S]
/// Exit code 0 = no divergence inside the budget; 1 = divergence (a repro
/// line with the seed and iteration is printed first).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/workloads.h"
#include "graph/spf.h"
#include "graph/topology.h"
#include "reference_delay_dp.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "routing/weights.h"
#include "util/cli.h"
#include "util/rng.h"

namespace dtr {
namespace {

std::uint64_t g_seed = 0;
std::uint64_t g_iteration = 0;
int g_failures = 0;
std::size_t g_dp_checks = 0;

void report_divergence(const char* layer, const std::string& detail) {
  std::fprintf(stderr,
               "DIVERGENCE in %s at iteration %llu (replay with --seed %llu)\n  %s\n",
               layer, static_cast<unsigned long long>(g_iteration),
               static_cast<unsigned long long>(g_seed), detail.c_str());
  ++g_failures;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool results_identical(const EvalResult& a, const EvalResult& b) {
  return std::memcmp(&a.lambda, &b.lambda, sizeof(double)) == 0 &&
         std::memcmp(&a.phi, &b.phi, sizeof(double)) == 0 &&
         a.sla_violations == b.sla_violations &&
         a.disconnected_delay_pairs == b.disconnected_delay_pairs &&
         a.disconnected_tput_pairs == b.disconnected_tput_pairs &&
         bytes_equal(a.arc_total_load, b.arc_total_load) &&
         bytes_equal(a.arc_utilization, b.arc_utilization) &&
         bytes_equal(a.sd_delay_ms, b.sd_delay_ms) &&
         a.carries_delay_traffic == b.carries_delay_traffic;
}

Graph random_graph(Rng& rng) {
  SynthTopoParams params;
  params.num_nodes = rng.uniform_int(8, 18);
  params.avg_degree = 3.0 + static_cast<double>(rng.uniform_int(0, 20)) / 10.0;
  params.capacity_mbps = 500.0;
  params.seed = rng.split().seed();
  return make_rand_topo(params);
}

/// Layer 1: raw delta-SPF weight updates vs full Dijkstra, every destination.
void fuzz_delta_spf(Rng& rng) {
  const Graph g = random_graph(rng);
  std::vector<double> costs(g.num_arcs());
  std::vector<double> link_weight(g.num_links());
  for (double& w : link_weight) w = static_cast<double>(rng.uniform_int(1, 20));
  for (ArcId a = 0; a < g.num_arcs(); ++a) costs[a] = link_weight[g.arc(a).link];

  // Change 1-3 links: new random weight, or removal via the alive mask.
  const int changed = rng.uniform_int(1, 3);
  std::vector<double> new_costs = costs;
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  std::vector<ArcCostDelta> changes;
  for (int c = 0; c < changed; ++c) {
    const LinkId l = static_cast<LinkId>(
        rng.uniform_int(0, static_cast<int>(g.num_links()) - 1));
    if (!changes.empty() && g.link_arcs(l)[0] == changes[0].arc) continue;
    const bool remove = rng.uniform_int(0, 3) == 0;
    const double w = static_cast<double>(rng.uniform_int(1, 40));
    for (ArcId a : g.link_arcs(l)) {
      changes.push_back({a, costs[a]});
      if (remove)
        alive[a] = 0;
      else
        new_costs[a] = w;
    }
  }

  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    shortest_distances_to(g, t, costs, {}, base);
    delta = base;
    const std::ptrdiff_t touched = delta_spf_update_arcs(g, new_costs, alive, changes,
                                                         delta, g.num_nodes(), scratch);
    if (touched < 0) {
      if (delta != base)
        report_divergence("delta_spf_update_arcs",
                          "abort left dist modified, dest " + std::to_string(t));
      continue;
    }
    shortest_distances_to(g, t, new_costs, alive, full);
    if (!bytes_equal(delta, full))
      report_divergence("delta_spf_update_arcs", "dest " + std::to_string(t));
  }
}

/// Weight range of one layer-2..5 instance: 2 (tie-heavy) or 20.
int draw_wmax(Rng& rng) { return rng.uniform_int(0, 1) == 0 ? 2 : 20; }

/// Layers 2+3: full evaluation stack — scenarios and weight-delta donors.
void fuzz_evaluator(Rng& rng) {
  experiments::WorkloadSpec spec;
  spec.kind = experiments::TopologyKind::kRand;
  spec.nodes = rng.uniform_int(8, 14);
  spec.degree = 3.0 + static_cast<double>(rng.uniform_int(0, 15)) / 10.0;
  spec.seed = rng.split().seed();
  const experiments::Workload w = experiments::make_workload(spec);
  const int num_links = static_cast<int>(w.graph.num_links());

  EvaluatorConfig fast_cfg;  // defaults: incremental + cache + donor patching
  EvaluatorConfig full_cfg;
  full_cfg.incremental = false;
  const Evaluator fast(w.graph, w.traffic, w.params, fast_cfg);
  const Evaluator full(w.graph, w.traffic, w.params, full_cfg);

  const int wmax = draw_wmax(rng);
  const std::string shape = " (wmax " + std::to_string(wmax) + ")";
  WeightSetting incumbent(w.graph.num_links());
  randomize_weights(incumbent, wmax, rng);

  // Scenario soup: the none case, random links, a pair, a links-only
  // compound, and a node failure (always full path — both sides must agree
  // there too).
  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (int i = 0; i < 4; ++i)
    scenarios.push_back(FailureScenario::link(
        static_cast<LinkId>(rng.uniform_int(0, num_links - 1))));
  scenarios.push_back(
      FailureScenario::compound({static_cast<LinkId>(rng.uniform_int(0, num_links - 1)),
                                 static_cast<LinkId>(rng.uniform_int(0, num_links - 1))}));
  {
    std::vector<LinkId> links;
    for (int i = 0, k = rng.uniform_int(2, 4); i < k; ++i)
      links.push_back(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)));
    scenarios.push_back(FailureScenario::compound(std::move(links)));
  }
  scenarios.push_back(FailureScenario::node(
      static_cast<NodeId>(rng.uniform_int(0, static_cast<int>(w.graph.num_nodes()) - 1))));

  // The incumbent, then Phase-1-probe-shaped neighbors (1-2 changed links):
  // after the first evaluation the fast evaluator's misses ride the donor
  // patch path.
  std::vector<WeightSetting> settings;
  settings.push_back(incumbent);
  for (int p = 0; p < 3; ++p) {
    WeightSetting probe = incumbent;
    for (int c = 0, k = rng.uniform_int(1, 2); c < k; ++c) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, num_links - 1));
      const TrafficClass cls =
          rng.uniform_int(0, 1) == 0 ? TrafficClass::kDelay : TrafficClass::kThroughput;
      probe.set(cls, l, rng.uniform_int(1, wmax));
    }
    settings.push_back(probe);
  }

  for (std::size_t s = 0; s < settings.size(); ++s) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const EvalResult a = fast.evaluate(settings[s], scenarios[i], EvalDetail::kFull);
      const EvalResult b = full.evaluate(settings[s], scenarios[i], EvalDetail::kFull);
      if (!results_identical(a, b))
        report_divergence("evaluate", "setting " + std::to_string(s) + " scenario " +
                                          std::to_string(i) + " (" +
                                          to_string(scenarios[i]) + ")" + shape);
    }
  }

  // evaluate_fluctuations with incremental per-trial evaluators vs the
  // full-recompute reference, on a small stress block.
  experiments::FluctuationSpec fluct;
  fluct.model = experiments::FluctuationSpec::Model::kGaussian;
  fluct.trials = rng.uniform_int(2, 4);
  std::vector<LinkId> top;
  for (int i = 0, k = rng.uniform_int(2, 4); i < k; ++i)
    top.push_back(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)));
  const std::uint64_t fluct_seed = rng.split().seed();
  const auto incremental = experiments::evaluate_fluctuations(
      w, settings, top, fluct, fluct_seed, nullptr, fast_cfg);
  const auto reference = experiments::evaluate_fluctuations(w, settings, top, fluct,
                                                            fluct_seed, nullptr, full_cfg);
  for (std::size_t r = 0; r < incremental.size(); ++r) {
    const experiments::StressSeries& a = incremental[r];
    if (!bytes_equal(a.mean_violations, reference[r].mean_violations) ||
        !bytes_equal(a.std_violations, reference[r].std_violations) ||
        !bytes_equal(a.mean_phi, reference[r].mean_phi) ||
        !bytes_equal(a.std_phi, reference[r].std_phi))
      report_divergence("evaluate_fluctuations", "routing " + std::to_string(r) + shape);
  }
}

/// Layer 4: a random walk shaped like LocalSearch over one fast evaluator.
/// Every evaluation is checked against the oracle; every return to the
/// pinned setting must be a cache hit, however many probes came between.
void fuzz_pinned_search(Rng& rng) {
  experiments::WorkloadSpec spec;
  spec.kind = experiments::TopologyKind::kRand;
  spec.nodes = rng.uniform_int(8, 14);
  spec.degree = 3.0 + static_cast<double>(rng.uniform_int(0, 15)) / 10.0;
  spec.seed = rng.split().seed();
  const experiments::Workload w = experiments::make_workload(spec);
  const Graph& g = w.graph;
  const int num_links = static_cast<int>(g.num_links());
  const Evaluator fast(g, w.traffic, w.params);
  const Evaluator full(g, w.traffic, w.params, {.incremental = false});
  const int wmax = draw_wmax(rng);
  const std::string shape = ", wmax " + std::to_string(wmax) + ")";

  const auto check = [&](const WeightSetting& x, const FailureScenario& scenario,
                         const char* step) {
    if (!results_identical(fast.evaluate(x, scenario, EvalDetail::kFull),
                           full.evaluate(x, scenario, EvalDetail::kFull)))
      report_divergence("pinned search", std::string(step) + " (" + to_string(scenario) + shape);
  };
  const auto random_setting = [&] {
    WeightSetting x(g.num_links());
    randomize_weights(x, wmax, rng);
    return x;
  };
  const auto adopt = [&](const WeightSetting& x) {
    fast.pin_incumbent(x);
    full.pin_incumbent(x);  // the oracle has no cache: must stay a no-op
    if (full.base_cache_size() != 0)
      report_divergence("pinned search", "pin cached a base with incremental off");
  };

  WeightSetting current = random_setting();
  WeightSetting best = current;
  WeightSetting pinned = current;
  check(current, FailureScenario::none(), "initial");
  adopt(current);
  for (int step = 0, steps = rng.uniform_int(20, 60); step < steps; ++step) {
    const int action = rng.uniform_int(0, 9);
    if (action == 0) {  // restart adoption
      current = random_setting();
      check(current, FailureScenario::none(), "restart");
      adopt(current);
      pinned = current;
    } else if (action == 1) {  // fallback to the best: no evaluation first
      current = best;
      const EvaluatorCacheStats before = fast.base_cache_stats();
      adopt(current);
      pinned = current;
      if (fast.base_cache_stats().hits != before.hits)
        report_divergence("pinned search", "pin counted a cache hit");
    } else if (action == 2) {  // return to the pinned setting
      const EvaluatorCacheStats before = fast.base_cache_stats();
      check(pinned, FailureScenario::none(), "pinned");
      if (fast.base_cache_stats().misses != before.misses)
        report_divergence("pinned search", "pinned setting was evicted");
    } else {  // single-link probe of the current setting, sometimes accepted
      WeightSetting probe = current;
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, num_links - 1));
      probe.set(TrafficClass::kDelay, l, rng.uniform_int(1, wmax));
      probe.set(TrafficClass::kThroughput, l, rng.uniform_int(1, wmax));
      const FailureScenario scenario =
          rng.uniform_int(0, 3) == 0
              ? FailureScenario::link(static_cast<LinkId>(rng.uniform_int(0, num_links - 1)))
              : FailureScenario::none();
      check(probe, scenario, "probe");
      if (rng.uniform_int(0, 4) == 0) {
        current = std::move(probe);
        if (rng.uniform_int(0, 1) == 0) best = current;
      }
    }
    if (fast.base_cache_size() > kBaseCacheCapacity)
      report_divergence("pinned search", "cache above capacity");
  }
}

/// Layer 5: the delay DP over the recorded DAG vs the sorted reference.
void fuzz_delay_dp(Rng& rng) {
  const Graph g = random_graph(rng);
  const std::size_t n = g.num_nodes();
  TrafficMatrix demands(n);
  // Dense (every pair) or sparse (a handful of pairs) demand.
  const bool sparse = rng.uniform_int(0, 1) == 0;
  for (NodeId s = 0; s < n; ++s)
    for (NodeId t = 0; t < n; ++t)
      if (s != t && (!sparse || rng.uniform_int(0, 9) == 0))
        demands.set(s, t, rng.uniform(0.1, 10.0));
  const int wmax = draw_wmax(rng);
  const std::string shape =
      (sparse ? " (sparse, wmax " : " (dense, wmax ") + std::to_string(wmax) + ")";
  for (const std::string& bad : test::delay_dp_mismatches(g, demands, wmax, rng, g_dp_checks))
    report_divergence("end_to_end_delays", bad + shape);
}

}  // namespace
}  // namespace dtr

int main(int argc, char** argv) {
  namespace cli = dtr::cli;
  std::uint64_t seed = 0;
  double budget_seconds = 20.0;
  cli::parse_or_exit(
      "differential_fuzz",
      {"differential_fuzz [--seed N] [--budget-seconds S]",
       {{"--seed", "N", "fuzz seed (0 or absent: a fixed default)",
         [&](std::string_view v) { seed = cli::to_u64(v); }},
        {"--budget-seconds", "S", "wall-clock fuzzing budget (default 20)",
         [&](std::string_view v) { budget_seconds = cli::to_double(v); }}}},
      argc, argv);
  if (seed == 0) seed = 0x9e3779b97f4a7c15ull;  // fixed default for local runs
  dtr::g_seed = seed;
  std::printf("differential_fuzz: seed=%llu budget=%.1fs (replay: --seed %llu)\n",
              static_cast<unsigned long long>(seed), budget_seconds,
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  dtr::Rng rng(seed);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(budget_seconds);
  while (std::chrono::steady_clock::now() < deadline && dtr::g_failures == 0) {
    ++dtr::g_iteration;
    dtr::fuzz_delta_spf(rng);
    dtr::fuzz_evaluator(rng);
    dtr::fuzz_pinned_search(rng);
    dtr::fuzz_delay_dp(rng);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("differential_fuzz: %llu iterations (%zu DP checks) in %.1fs, %d divergences\n",
              static_cast<unsigned long long>(dtr::g_iteration), dtr::g_dp_checks, elapsed,
              dtr::g_failures);
  // A run that compared nothing proved nothing: it must not pass the gate.
  if (dtr::g_iteration == 0) {
    std::fprintf(stderr, "differential_fuzz: no iterations ran within the budget\n");
    return 1;
  }
  return dtr::g_failures == 0 ? 0 : 1;
}
