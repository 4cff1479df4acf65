/// Sec. IV-E2 — computational savings of the critical search
/// (google-benchmark binary).
///
/// The paper reports Phase 1 / Phase 2 wall-clock for critical vs. full
/// search on a 30-node, 240-arc RandTopo with |Ec|/|E| = 0.1: the critical
/// search trades a slightly longer Phase 1 (sampling) for an order-of-
/// magnitude shorter Phase 2 (56h -> 4h on their hardware). Absolute times
/// differ on modern machines; the claim is the RATIO, which this bench
/// reproduces, plus the |Ec| knob's proportional effect.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "experiments/bench_report.h"
#include "routing/failures.h"
#include "scenarios/scenario_set.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

namespace {

using namespace dtr;
using namespace dtr::bench;

struct TimingFixture {
  Workload workload;
  std::unique_ptr<Evaluator> evaluator;

  explicit TimingFixture(Effort effort, std::uint64_t seed) {
    WorkloadSpec spec = default_rand_spec(effort, seed);
    spec.degree = effort == Effort::kFull ? 8.0 : 5.0;  // paper: 30 nodes, 240 arcs
    workload = make_workload(spec);
    evaluator = std::make_unique<Evaluator>(workload.graph, workload.traffic,
                                            workload.params);
  }
};

TimingFixture& fixture() {
  static TimingFixture f(effort_from_env(Effort::kQuick), seed_from_env(1));
  return f;
}

void report_phases(benchmark::State& state, const OptimizeResult& r) {
  state.counters["phase1_s"] = r.phase1_seconds + r.phase1b_seconds;
  state.counters["phase2_s"] = r.phase2_seconds;
  state.counters["phase2_scenario_evals"] =
      static_cast<double>(r.phase2_scenario_evaluations);
  state.counters["Ec"] = static_cast<double>(r.critical.size());
}

void BM_CriticalSearch(benchmark::State& state) {
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  const Effort effort = effort_from_env(Effort::kQuick);
  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(*fixture().evaluator, effort, seed_from_env(1),
                         [&](OptimizerConfig& c) { c.critical_fraction = fraction; });
  }
  report_phases(state, last);
}
BENCHMARK(BM_CriticalSearch)->Arg(10)->Arg(15)->Arg(25)->Unit(benchmark::kSecond)
    ->Iterations(1);

void BM_FullSearch(benchmark::State& state) {
  const Effort effort = effort_from_env(Effort::kQuick);
  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(*fixture().evaluator, effort, seed_from_env(1),
                         [](OptimizerConfig& c) { c.selector = SelectorKind::kFullSearch; });
  }
  report_phases(state, last);
}
BENCHMARK(BM_FullSearch)->Unit(benchmark::kSecond)->Iterations(1);

// ---------------------------------------------------------------------------
// Parallel scenario-evaluation engine scaling (OptimizerConfig::num_threads).
// Results are bit-identical across thread counts; only wall-clock changes.
// Arg(1) = the seed's sequential path, Arg(0) = one worker per hardware
// thread. On a >= 4-core machine the full failure sweep should scale ~linearly
// until memory bandwidth saturates.
// ---------------------------------------------------------------------------

void BM_FailureSweepThreads(benchmark::State& state) {
  const Evaluator& ev = *fixture().evaluator;
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  const int num_threads = static_cast<int>(state.range(0));
  ThreadPool pool(num_threads);
  double checksum = 0.0;
  for (auto _ : state) {
    const auto results = ev.evaluate_failures(w, scenarios, &pool);
    checksum += results.front().phi;
  }
  benchmark::DoNotOptimize(checksum);
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
  state.counters["workers"] = static_cast<double>(pool.num_workers());
}
BENCHMARK(BM_FailureSweepThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Incremental (delta-SPF) failure evaluation vs full recompute
// (EvaluatorConfig::incremental). Results are bit-identical — the acceptance
// metric is the wall-clock ratio on the all-link-failures sweep that
// dominates the optimizer's Phase 2 and every campaign profile. The base
// cache is emptied every iteration, so each sweep pays for its own base.
// ---------------------------------------------------------------------------

void BM_FailureSweepIncremental(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const Workload& workload = fixture().workload;
  EvaluatorConfig config;
  config.incremental = incremental;
  const Evaluator ev(workload.graph, workload.traffic, workload.params, config);
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  double checksum = 0.0;
  for (auto _ : state) {
    ev.invalidate_base_cache();
    const auto results = ev.evaluate_failures(w, scenarios);
    checksum += results.front().phi;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel(incremental ? "incremental" : "full");
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
}
BENCHMARK(BM_FailureSweepIncremental)
    ->ArgNames({"incremental"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Telemetry overhead guard: the SAME all-link-failures sweep as
// BM_FailureSweepIncremental's fastest shape, once with a live counter
// registry attached (telemetry:1) and once with collection globally disabled
// (telemetry:0, what DTR_TELEMETRY_OFF gives). The acceptance target is
// <2% overhead on the instrumented run — counters are per-worker slab
// accumulation plus one relaxed-atomic publish per batch, so the two rows
// should be indistinguishable beyond noise.
// ---------------------------------------------------------------------------

void BM_FailureSweepTelemetry(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(instrumented);
  const Workload& workload = fixture().workload;
  telemetry::Registry registry;
  EvaluatorConfig config;
  config.telemetry = &registry;
  const Evaluator ev(workload.graph, workload.traffic, workload.params, config);
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  double checksum = 0.0;
  for (auto _ : state) {
    ev.invalidate_base_cache();  // isolate the per-call cost
    const auto results = ev.evaluate_failures(w, scenarios);
    checksum += results.front().phi;
  }
  benchmark::DoNotOptimize(checksum);
  telemetry::set_enabled(was_enabled);
  state.SetLabel(instrumented ? "instrumented" : "telemetry-off");
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
  state.counters["dests_delta"] = static_cast<double>(
      registry.snapshot(telemetry::Plane::kDeterministic).counter("spf.dests_delta"));
}
BENCHMARK(BM_FailureSweepTelemetry)
    ->ArgNames({"telemetry"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Event-bus overhead guard: the same all-link sweep, publishing one
// deterministic iteration record PER SCENARIO onto a live EventBus and
// draining it (events:1) vs the bare sweep (events:0). That is a far higher
// event rate than production — the optimizer publishes per ACCEPTED MOVE,
// orders of magnitude rarer than evaluations — so the <2% acceptance target
// here bounds the real overhead from well above. Serialization to JSONL is
// deliberately absent: it happens at export time, off the hot path.
// ---------------------------------------------------------------------------

void BM_EventBusOverhead(benchmark::State& state) {
  const bool events_on = state.range(0) != 0;
  const Workload& workload = fixture().workload;
  const Evaluator ev(workload.graph, workload.traffic, workload.params);
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  telemetry::EventBus bus(1 << 12);
  std::uint64_t published = 0;
  double checksum = 0.0;
  for (auto _ : state) {
    ev.invalidate_base_cache();  // isolate the per-call cost
    const auto results = ev.evaluate_failures(w, scenarios);
    checksum += results.front().phi;
    if (events_on) {
      for (std::size_t i = 0; i < results.size(); ++i) {
        telemetry::Event e;
        e.kind = telemetry::EventKind::kIteration;
        e.label = "phase2";
        e.iteration = static_cast<std::uint64_t>(i);
        e.evaluations = static_cast<std::uint64_t>(i);
        e.link = static_cast<std::int64_t>(i);
        e.cost_lambda = results[i].sla_violations;
        e.cost_phi = results[i].phi;
        telemetry::publish_deterministic(&bus, std::move(e));
      }
      published += bus.drain().size();
    }
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel(events_on ? "events-on" : "events-off");
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
  state.counters["events_per_iter"] =
      events_on ? static_cast<double>(scenarios.size()) : 0.0;
  if (events_on && bus.dropped() > 0) state.SkipWithError("event bus overflowed");
  benchmark::DoNotOptimize(published);
}
BENCHMARK(BM_EventBusOverhead)
    ->ArgNames({"events"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Compound-failure (scenario-catalog) sweep: a budget-capped 2-link catalog
// with rate-derived weights, aggregated through the weighted Evaluator::sweep.
// Compound scenarios remove 4 arcs each, so this measures the multi-arc
// delta-SPF patching path the SRLG/k-link workloads lean on. Results are
// bit-identical across the toggle; the acceptance metric is the ratio.
// ---------------------------------------------------------------------------

void BM_CompoundFailureSweep(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const Workload& workload = fixture().workload;
  EvaluatorConfig config;
  config.incremental = incremental;
  const Evaluator ev(workload.graph, workload.traffic, workload.params, config);
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  ScenarioSet set = enumerate_k_link_failures(
      ev.graph(), {2, 2 * ev.graph().num_links(), seed_from_env(1)});
  apply_rate_weights(set, derive_failure_rates(ev.graph()));

  double checksum = 0.0;
  for (auto _ : state) {
    ev.invalidate_base_cache();  // isolate the per-call cost
    const SweepResult r = ev.sweep(w, set.scenarios(), {.scenario_weights = set.weights()});
    checksum += r.phi;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel(incremental ? "incremental" : "full");
  state.counters["scenarios"] = static_cast<double>(set.size());
}
BENCHMARK(BM_CompoundFailureSweep)
    ->ArgNames({"incremental"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Base-routing cache on the Phase-2 local-search workload: every candidate
// is a normal evaluation followed by a critical-scenario sweep of the SAME
// weights, so the cache turns two full base routings per candidate into
// one. The cache counters say how often it served.
// ---------------------------------------------------------------------------

void BM_Phase2BaseCache(benchmark::State& state) {
  const Effort effort = effort_from_env(Effort::kQuick);
  const Workload& workload = fixture().workload;
  const Evaluator ev(workload.graph, workload.traffic, workload.params);
  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(ev, effort, seed_from_env(1), [](OptimizerConfig&) {});
  }
  report_phases(state, last);
  state.counters["cache_hits"] = static_cast<double>(last.base_cache_hits());
  state.counters["cache_misses"] = static_cast<double>(last.base_cache_misses());
}
BENCHMARK(BM_Phase2BaseCache)->Unit(benchmark::kSecond)->Iterations(1);

// ---------------------------------------------------------------------------
// Weight-delta donor patching on the Phase-1 probe shape: a cached incumbent,
// then a batch of candidates each differing on ONE link. With the donor
// resident (donor:1) every probe's base — labels, DAGs, loads — is
// delta-patched from the incumbent via delta_spf_update_arcs + record replay;
// with the cache emptied before each probe (donor:0) every probe pays two
// full all-destination Dijkstra builds. Results are bit-identical; the ratio
// is the Phase-1 probe speedup. Evaluator construction + incumbent seeding
// sit outside the timed region so only the probe evaluations are measured.
// The batch is kBaseCacheCapacity probes: the incumbent is evicted by the
// last insertion, after serving every probe as the donor.
// ---------------------------------------------------------------------------

void BM_Phase1ProbePatching(benchmark::State& state) {
  const bool donor = state.range(0) != 0;
  const Workload& workload = fixture().workload;
  const std::size_t num_links = workload.graph.num_links();
  WeightSetting incumbent(num_links);
  Rng rng(seed_from_env(1));
  randomize_weights(incumbent, 30, rng);
  const std::size_t num_probes = std::min(kBaseCacheCapacity, num_links);
  std::vector<WeightSetting> probes;
  for (std::size_t p = 0; p < num_probes; ++p) {
    WeightSetting probe = incumbent;
    // 31 + p is above the randomize_weights range, so every probe is a
    // guaranteed single-link diff from the incumbent (a fresh cache miss).
    probe.set(TrafficClass::kDelay, static_cast<LinkId>(p),
              31 + static_cast<int>(p));
    probes.push_back(std::move(probe));
  }

  double checksum = 0.0;
  std::uint64_t patched = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Evaluator ev(workload.graph, workload.traffic, workload.params);
    checksum += ev.evaluate(incumbent, FailureScenario::none()).phi;
    state.ResumeTiming();
    for (const WeightSetting& probe : probes) {
      if (!donor) ev.invalidate_base_cache();
      checksum += ev.evaluate(probe, FailureScenario::none()).phi;
    }
    state.PauseTiming();
    patched = ev.base_cache_stats().weight_patched;
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel(donor ? "donor-patched" : "full-build");
  state.counters["probes"] = static_cast<double>(num_probes);
  state.counters["weight_patched"] = static_cast<double>(patched);
}
BENCHMARK(BM_Phase1ProbePatching)
    ->ArgNames({"donor"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cross-trial base sharing in the fluctuated-TM stress sweep: shared:1 runs
// evaluate_fluctuations' shared-labels path (SPF labels + failure patching
// computed once per weight setting, reused across every perturbed trial —
// only load aggregation reruns per trial); shared:0 forces the per-trial
// reference shape where each of the `trials` evaluators rebuilds routing
// from scratch for every (routing, failure) pair. Series are bit-identical;
// the ratio is this PR's fluctuation acceptance number.
// ---------------------------------------------------------------------------

void BM_FluctuationSweep(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  const Workload& workload = fixture().workload;
  EvaluatorConfig config;
  config.incremental = shared;  // the shared-labels path rides the HOW-knob
  Rng rng(seed_from_env(1));
  std::vector<WeightSetting> routings(2, WeightSetting(workload.graph.num_links()));
  for (WeightSetting& w : routings) randomize_weights(w, 30, rng);
  std::vector<LinkId> top;
  for (LinkId l = 0; l < std::min<std::size_t>(6, workload.graph.num_links()); ++l)
    top.push_back(l);
  FluctuationSpec fluct;
  fluct.model = FluctuationSpec::Model::kGaussian;
  fluct.trials = 8;

  double checksum = 0.0;
  for (auto _ : state) {
    const auto series = evaluate_fluctuations(workload, routings, top, fluct,
                                              seed_from_env(1), nullptr, config);
    checksum += series.front().mean_phi.front();
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel(shared ? "shared-labels" : "per-trial-full");
  state.counters["trials"] = static_cast<double>(fluct.trials);
  state.counters["routings"] = static_cast<double>(routings.size());
}
BENCHMARK(BM_FluctuationSweep)
    ->ArgNames({"shared"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Catalog-objective Phase 2 (HardeningObjective): the optimizer hardened
// against a rate-weighted 2-link catalog under each aggregation mode, vs.
// the classic per-link pipeline of BM_CriticalSearch. Expected cost rides
// the weighted early-abort sweep, downtime the violation-bound abort,
// percentile pays full sweeps — the counters expose how many scenario
// evaluations each mode needed for the same phase structure.
// ---------------------------------------------------------------------------

void BM_Phase2CatalogObjective(benchmark::State& state) {
  const auto mode = static_cast<AggregationMode>(state.range(0));
  const Effort effort = effort_from_env(Effort::kQuick);
  const Evaluator& ev = *fixture().evaluator;

  ScenarioSet set = enumerate_k_link_failures(
      ev.graph(), {2, 2 * ev.graph().num_links(), seed_from_env(1)});
  apply_rate_weights(set, derive_failure_rates(ev.graph()));
  HardeningObjective objective;
  objective.set = std::move(set);
  objective.mode = mode;

  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(ev, effort, seed_from_env(1),
                         [&](OptimizerConfig& c) { c.objective = objective; });
  }
  report_phases(state, last);
  state.SetLabel(std::string(to_string(mode)));
  state.counters["catalog"] = static_cast<double>(last.catalog_size);
  state.counters["Sc"] = static_cast<double>(last.critical_scenarios.size());
}
BENCHMARK(BM_Phase2CatalogObjective)
    ->Arg(static_cast<int>(AggregationMode::kExpectedCost))
    ->Arg(static_cast<int>(AggregationMode::kWeightedPercentile))
    ->Arg(static_cast<int>(AggregationMode::kExpectedDowntime))
    ->Unit(benchmark::kSecond)->Iterations(1);

// ---------------------------------------------------------------------------
// ISP-scale tier: the generated Rocketfuel-style topology axis at network
// sizes far beyond the paper tables, iterating the CSR graph core. The sweep
// row tracks the production campaign profile (incremental + base cache) on an
// all-link failure sweep; the optimize row tracks end-to-end robust search
// cost growth. Search effort is pinned to kSmoke so the rows measure
// per-candidate cost scaling, not search quality, and stay minutes-bounded
// in the CI perf job.
// ---------------------------------------------------------------------------

const Workload& isp_workload(int nodes) {
  static std::map<int, Workload> cache;
  auto [it, inserted] = cache.try_emplace(nodes);
  if (inserted) {
    WorkloadSpec spec;
    spec.kind = TopologyKind::kIsp;
    spec.isp_source = IspSource::kGenerated;
    spec.nodes = nodes;
    spec.isp_pops = std::max(6, nodes / 25);
    spec.seed = seed_from_env(1);
    it->second = make_workload(spec);
  }
  return it->second;
}

void BM_IspScaleSweep(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const Workload& workload = isp_workload(nodes);
  const Evaluator ev(workload.graph, workload.traffic, workload.params);
  WeightSetting w(ev.graph().num_links());
  Rng rng(seed_from_env(1));
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  double checksum = 0.0;
  for (auto _ : state) {
    const auto results = ev.evaluate_failures(w, scenarios);
    checksum += results.front().phi;
  }
  benchmark::DoNotOptimize(checksum);
  state.counters["nodes"] = static_cast<double>(ev.graph().num_nodes());
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
}
BENCHMARK(BM_IspScaleSweep)
    ->ArgNames({"nodes"})
    ->Arg(300)->Arg(1000)
    ->Unit(benchmark::kSecond)->Iterations(1);

void BM_IspScaleOptimize(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const Workload& workload = isp_workload(nodes);
  const Evaluator ev(workload.graph, workload.traffic, workload.params);
  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(ev, Effort::kSmoke, seed_from_env(1),
                         [](OptimizerConfig& c) {
                           // Every default search budget grows with |E|: one
                           // local-search iteration probes EVERY link, the
                           // stall-based phases run to ~1600 such passes, the
                           // Phase-1b sample budget is 20*tau*|E|, and every
                           // Phase-2 probe sweeps the critical set. Pin all
                           // of them so this row measures per-probe cost
                           // growth along the size axis, not a budget formula
                           // that grows with the axis itself.
                           c.max_phase1b_samples = 500;
                           c.phase1.max_iterations = 2;
                           c.phase2.max_iterations = 1;
                           c.critical_count = 8;
                         });
  }
  report_phases(state, last);
  state.counters["nodes"] = static_cast<double>(ev.graph().num_nodes());
  state.counters["links"] = static_cast<double>(ev.graph().num_links());
}
BENCHMARK(BM_IspScaleOptimize)
    ->ArgNames({"nodes"})
    ->Arg(300)
    ->Unit(benchmark::kSecond)->Iterations(1);

void BM_CriticalSearchThreads(benchmark::State& state) {
  const Effort effort = effort_from_env(Effort::kQuick);
  const int num_threads = static_cast<int>(state.range(0));
  OptimizeResult last;
  for (auto _ : state) {
    last = run_optimizer(*fixture().evaluator, effort, seed_from_env(1),
                         [&](OptimizerConfig& c) { c.num_threads = num_threads; });
  }
  report_phases(state, last);
  state.counters["workers"] = static_cast<double>(
      num_threads == 0 ? std::thread::hardware_concurrency() : num_threads);
}
BENCHMARK(BM_CriticalSearchThreads)->Arg(1)->Arg(0)->Unit(benchmark::kSecond)
    ->Iterations(1);

/// Console reporter that also collects every run for the dtr.bench.v1
/// perf-trajectory artifact (--bench-json). Only fields stable across
/// google-benchmark 1.7-1.8 are touched.
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      dtr::experiments::BenchEntry entry;
      entry.name = run.benchmark_name();
      if (run.iterations > 0)
        entry.real_ms =
            run.real_accumulated_time / static_cast<double>(run.iterations) * 1e3;
      for (const auto& [name, counter] : run.counters)
        entry.counters.emplace_back(name, counter.value);
      entries.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<dtr::experiments::BenchEntry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip the artifact flags before google-benchmark parses the rest.
  std::string bench_json, bench_sha;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--bench-json") bench_json = next();
    else if (arg == "--bench-sha") bench_sha = next();
    else passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!bench_json.empty()) {
    dtr::experiments::BenchReport report;
    report.sha = bench_sha;
    report.effort = to_string(effort_from_env(Effort::kQuick));
    report.entries = std::move(reporter.entries);
    std::ofstream out(bench_json);
    if (!out) {
      std::cerr << "cannot write " << bench_json << "\n";
      return 1;
    }
    dtr::experiments::write_bench_json(out, report);
    std::cout << "wrote bench JSON to " << bench_json << "\n";
  }
  return 0;
}
