#include "core/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/baseline_selectors.h"
#include "core/metrics.h"
#include "telemetry/events.h"
#include "util/thread_pool.h"

namespace dtr {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Phase 1 objective: K_normal (always feasible). One no-failure evaluation
/// decides every probe, so the whole of it runs in the concurrent screen.
class NormalObjective final : public SearchObjective {
 public:
  explicit NormalObjective(const Evaluator& evaluator) : evaluator_(evaluator) {}

  Screening screen(const WeightSetting& w) const override {
    return Screening::decide(evaluator_.evaluate(w).cost());
  }
  std::optional<CostPair> finish(const WeightSetting& w, const CostPair*) override {
    return evaluator_.evaluate(w).cost();  // unreachable: screen decides
  }

 private:
  const Evaluator& evaluator_;
};

/// Shared Phase-2 scaffolding: every aggregation minimizes its own compound
/// cost subject to the SAME constraints (5) and (6) on normal-condition
/// performance, and reports how many failure-scenario evaluations it spent.
/// The constraint gate is the screen — one no-failure evaluation, safe to run
/// speculatively on pool workers — and rejects almost every candidate; the
/// aggregations' sweeps, their scratch and the scenario counter live in
/// `finish`, on the calling thread, for committed candidates only.
class Phase2Objective : public SearchObjective {
 public:
  Phase2Objective(const Evaluator& evaluator, std::vector<FailureScenario> scenarios,
                  std::vector<double> scenario_weights, CostPair star, double chi,
                  ThreadPool* pool)
      : evaluator_(evaluator),
        scenarios_(std::move(scenarios)),
        scenario_weights_(std::move(scenario_weights)),
        star_(star),
        chi_(chi),
        pool_(pool) {}

  long scenario_evaluations() const { return scenario_evaluations_; }

  /// Constraint gate: Eq. (5) pins Lambda_normal to Lambda*, Eq. (6) bounds
  /// Phi_normal by (1+chi) * Phi*. Infeasible candidates are decided here.
  Screening screen(const WeightSetting& w) const final {
    const CostPair normal = evaluator_.evaluate(w).cost();
    const LexicographicOrder order;
    if (!order.values_equal(normal.lambda, star_.lambda))  // Eq. (5)
      return Screening::decide(std::nullopt);
    if (normal.phi > (1.0 + chi_) * star_.phi + order.abs_tol())  // Eq. (6)
      return Screening::decide(std::nullopt);
    return Screening::defer();
  }

 protected:
  const Evaluator& evaluator_;
  std::vector<FailureScenario> scenarios_;
  std::vector<double> scenario_weights_;
  CostPair star_;
  double chi_;
  ThreadPool* pool_;
  long scenario_evaluations_ = 0;
};

/// Expected-cost aggregation: (weighted) K_fail-bar over the scenarios — the
/// Eq. (4) objective, and an expectation when the weights are probabilities.
/// Uses the incumbent cost as an early-abort bound for the failure sweep.
class ExpectedCostObjective final : public Phase2Objective {
 public:
  using Phase2Objective::Phase2Objective;

  std::optional<CostPair> finish(const WeightSetting& w,
                                 const CostPair* incumbent) override {
    SweepOptions options;
    options.abort_bound = incumbent;
    options.scenario_weights = scenario_weights_;
    options.pool = pool_;
    const SweepResult sweep = evaluator_.sweep(w, scenarios_, options);
    scenario_evaluations_ += static_cast<long>(sweep.scenarios_evaluated);
    return sweep.cost();
  }
};

/// Weighted-percentile aggregation: the per-scenario (Lambda, Phi) costs
/// reduced to their weighted p-quantiles. Order statistics need every
/// scenario's cost, so there is no early abort — the catalog is swept in
/// full per candidate (parallelized across the pool).
class PercentileObjective final : public Phase2Objective {
 public:
  PercentileObjective(const Evaluator& evaluator, std::vector<FailureScenario> scenarios,
                      std::vector<double> scenario_weights, double percentile,
                      CostPair star, double chi, ThreadPool* pool)
      : Phase2Objective(evaluator, std::move(scenarios), std::move(scenario_weights),
                        star, chi, pool),
        percentile_(percentile) {}

  std::optional<CostPair> finish(const WeightSetting& w, const CostPair*) override {
    const std::vector<EvalResult> results =
        evaluator_.evaluate_failures(w, scenarios_, pool_);
    scenario_evaluations_ += static_cast<long>(results.size());
    lambda_.clear();
    phi_.clear();
    for (const EvalResult& r : results) {
      lambda_.push_back(r.lambda);
      phi_.push_back(r.phi);
    }
    return CostPair{weighted_percentile(lambda_, scenario_weights_, percentile_),
                    weighted_percentile(phi_, scenario_weights_, percentile_)};
  }

 private:
  double percentile_;
  std::vector<double> lambda_;  // per-candidate scratch
  std::vector<double> phi_;
};

/// Expected-downtime aggregation: Sum_s w_s * (violations_s - unavoidable_s)
/// * period_minutes, with the routing-independent unavoidable floor
/// (metrics::unavoidable_violations) precomputed per scenario. Because the
/// floor does not depend on the weights being scored, minimizing the raw
/// weighted violation sum V is equivalent — so the sweep's early abort runs
/// on the violations axis (SweepOptions::abort_on_violations) with the
/// incumbent downtime translated into a violation-mass bound.
class DowntimeObjective final : public Phase2Objective {
 public:
  DowntimeObjective(const Evaluator& evaluator, std::vector<FailureScenario> scenarios,
                    std::vector<double> scenario_weights, double period_minutes,
                    CostPair star, double chi, ThreadPool* pool)
      : Phase2Objective(evaluator, std::move(scenarios), std::move(scenario_weights),
                        star, chi, pool),
        period_minutes_(period_minutes) {
    const std::vector<double> unavoidable =
        unavoidable_violation_profile(evaluator_, scenarios_, pool_);
    for (std::size_t i = 0; i < unavoidable.size(); ++i)
      unavoidable_mass_ += scenario_weights_[i] * unavoidable[i];
  }

  std::optional<CostPair> finish(const WeightSetting& w,
                                 const CostPair* incumbent) override {
    SweepOptions options;
    options.scenario_weights = scenario_weights_;
    options.pool = pool_;
    options.abort_on_violations = true;
    CostPair bound;
    if (incumbent != nullptr) {
      // incumbent->lambda is avoidable downtime in minutes; the equivalent
      // bound on the weighted violation sum is U + D / period.
      bound = CostPair{unavoidable_mass_ + incumbent->lambda / period_minutes_,
                       incumbent->phi};
      options.abort_bound = &bound;
    }
    const SweepResult sweep = evaluator_.sweep(w, scenarios_, options);
    scenario_evaluations_ += static_cast<long>(sweep.scenarios_evaluated);
    // On abort, return the incumbent itself: partial violation mass already
    // exceeds the translated bound, but converting it back through the
    // division/multiplication round trip could round to "better" — the
    // incumbent is exactly not-better, which is all the contract needs.
    if (sweep.aborted) return *incumbent;
    const double avoidable = std::max(0.0, sweep.violations - unavoidable_mass_);
    return CostPair{avoidable * period_minutes_, sweep.phi};
  }

 private:
  double period_minutes_;
  double unavoidable_mass_ = 0.0;  ///< U = Sum_s w_s * unavoidable_s
};

}  // namespace

std::string to_string(SelectorKind k) {
  switch (k) {
    case SelectorKind::kDistributionGap: return "distribution-gap";
    case SelectorKind::kRandom: return "random";
    case SelectorKind::kLoad: return "load-based";
    case SelectorKind::kThresholdCrossing: return "threshold-crossing";
    case SelectorKind::kFullSearch: return "full-search";
  }
  return "?";
}

OptimizerConfig default_optimizer_config(Effort effort, std::uint64_t seed) {
  OptimizerConfig config;
  config.seed = seed;
  switch (effort) {
    case Effort::kFull:
      // Paper values (Sec. V-A3).
      config.phase1 = {100, 20, 0.001, 0};
      config.phase2 = {30, 10, 0.001, 0};
      config.criticality.tau = 30;
      break;
    case Effort::kQuick:
      // Phase 2 gets a proportionally larger budget than Phase 1: the
      // critical set makes its per-candidate cost small (the paper's core
      // economics), and Phase 2 quality is what the evaluation measures.
      config.phase1 = {30, 5, 0.005, 0};
      config.phase2 = {24, 6, 0.003, 0};
      config.criticality.tau = 8;
      break;
    case Effort::kSmoke:
      config.phase1 = {10, 2, 0.01, 0};
      config.phase2 = {8, 2, 0.01, 0};
      config.criticality.tau = 3;
      break;
  }
  return config;
}

RobustOptimizer::RobustOptimizer(const Evaluator& evaluator, OptimizerConfig config)
    : evaluator_(evaluator), config_(config) {
  if (config_.critical_count == 0 &&
      (config_.critical_fraction <= 0.0 || config_.critical_fraction > 1.0))
    throw std::invalid_argument("RobustOptimizer: critical_fraction outside (0,1]");
  if (config_.chi < 0.0) throw std::invalid_argument("RobustOptimizer: negative chi");
  // The criticality acceptability relaxation chi and constraint (6) chi are
  // the same knob in the paper; keep them consistent.
  config_.criticality.chi = config_.chi;
}

std::size_t RobustOptimizer::critical_target_size() const {
  // The selection universe is the physical link set — or the scenario
  // catalog, when a catalog-mode objective replaces it.
  std::size_t universe = evaluator_.graph().num_links();
  if (config_.objective &&
      !as_per_link_probabilities(*config_.objective, universe).has_value())
    universe = config_.objective->set.size();
  if (config_.critical_count > 0) return std::min(config_.critical_count, universe);
  const auto target = static_cast<std::size_t>(
      std::lround(config_.critical_fraction * static_cast<double>(universe)));
  return std::max<std::size_t>(1, std::min(target, universe));
}

OptimizeResult RobustOptimizer::optimize() {
  const Graph& graph = evaluator_.graph();
  const std::size_t num_links = graph.num_links();
  Rng rng(config_.seed);

  // ---- Objective resolution ----------------------------------------------
  // A per-link-shaped expected-cost objective (what
  // objective_from_link_probabilities builds) runs the classic per-link
  // pipeline with the catalog weights as link probabilities — the SAME code
  // and RNG stream as before the objective API existed. Anything else
  // (compound scenarios, percentile / downtime aggregation) takes the
  // catalog path.
  const std::optional<HardeningObjective>& objective = config_.objective;
  std::vector<double> link_probabilities;
  bool catalog_mode = false;
  if (objective) {
    validate_objective(*objective, graph);
    if (auto per_link = as_per_link_probabilities(*objective, num_links))
      link_probabilities = std::move(*per_link);
    else
      catalog_mode = true;
  }

  // Failure-scenario evaluation pool. num_threads == 1 keeps everything on
  // the calling thread (the seed's sequential path); the engine is
  // deterministic, so any other value changes wall-clock time only.
  if (config_.num_threads < 0)
    throw std::invalid_argument("RobustOptimizer: negative num_threads");
  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(config_.num_threads);
    if (pool->num_workers() <= 1) pool.reset();
  }

  OptimizeResult result;
  const EvaluatorCacheStats cache_before = evaluator_.base_cache_stats();

  // Streaming events honor the global kill switch like every other sink.
  // Deterministic-plane publication rides the LocalSearch hook contract:
  // hooks run on the calling thread in iteration order, so the event stream
  // is byte-identical for any num_threads.
  telemetry::EventBus* events = telemetry::enabled() ? config_.events : nullptr;
  const auto phase_marker = [events](telemetry::EventKind kind, std::string_view label) {
    if (events == nullptr) return;
    telemetry::Event e;
    e.kind = kind;
    e.label = std::string(label);
    telemetry::publish_deterministic(events, std::move(e));
  };
  const auto phase_end = [events](std::string_view label, const LocalSearch::Result& r) {
    if (events == nullptr) return;
    telemetry::Event e;
    e.kind = telemetry::EventKind::kPhaseEnd;
    e.label = std::string(label);
    e.iteration = static_cast<std::uint64_t>(r.iterations);
    e.evaluations = static_cast<std::uint64_t>(r.evaluations);
    e.cost_lambda = r.best_cost.lambda;
    e.cost_phi = r.best_cost.phi;
    telemetry::publish_deterministic(events, std::move(e));
  };
  telemetry::Registry* live = telemetry::effective(config_.telemetry);
  const auto record_move = [events, live, &result](int phase, std::string_view label,
                                                   const MoveRecord& m) {
    result.trace.push_back({phase, m});
    if (live != nullptr) {
      // Live progress for the metrics exposer: the last accepted move is
      // scrapeable mid-run. Process plane — WHEN a scrape observes these is
      // shape-dependent even though the final values are not.
      live->gauge("optimizer.live.phase").set(static_cast<std::uint64_t>(phase));
      live->gauge("optimizer.live.iteration").set(static_cast<std::uint64_t>(m.iteration));
      live->gauge("optimizer.live.evaluations")
          .set(static_cast<std::uint64_t>(m.evaluations));
    }
    if (events == nullptr) return;
    telemetry::Event e;
    e.kind = telemetry::EventKind::kIteration;
    e.label = std::string(label);
    e.iteration = static_cast<std::uint64_t>(m.iteration);
    e.evaluations = static_cast<std::uint64_t>(m.evaluations);
    e.link = m.link == kInvalidLink ? -1 : static_cast<std::int64_t>(m.link);
    e.cost_lambda = m.cost.lambda;
    e.cost_phi = m.cost.phi;
    e.restart = m.restart;
    telemetry::publish_deterministic(events, std::move(e));
  };

  // ---------------- Phase 1: regular optimization (Eq. 3) -----------------
  const auto phase1_start = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1a");
  NormalObjective normal_objective(evaluator_);
  CriticalityCollector collector(num_links, config_.wmax, evaluator_.params().sla.b1,
                                 config_.criticality, rng.split().seed());
  AcceptableStore store(config_.store_capacity, rng.split().seed());

  // Catalog mode ranks scenarios in Phase 1b' instead of links in Phase
  // 1a/1b, so the per-link observer machinery stays detached there.
  const bool selector_needs_samples =
      !catalog_mode && (config_.selector == SelectorKind::kDistributionGap ||
                        config_.selector == SelectorKind::kThresholdCrossing);

  // Phase 1a probes score under NormalObjective, whose screen decides every
  // probe — LocalSearch's speculative screening scores them all in parallel.
  LocalSearch phase1_search({config_.phase1, config_.wmax, rng.split().seed(), pool.get()});
  if (selector_needs_samples) {
    if (config_.sampling_mode == SamplingMode::kEmulatedWeights) {
      // Paper-literal: the failure-emulating perturbation's own cost is the
      // sample (free, fidelity limited by wmax).
      phase1_search.set_observer(
          [&collector](const PerturbationEvent& e) { collector.on_perturbation(e); });
    } else {
      // Exact mode: the in-window perturbation only triggers sampling; the
      // recorded cost evaluates the TRUE failure of the link (the perturbed
      // weights are immaterial once its arcs are masked out), one extra
      // evaluation per trigger (~q-window hit rate of probes).
      phase1_search.set_observer([this, &collector](const PerturbationEvent& e) {
        if (!collector.should_sample(e)) return;
        collector.add_sample(
            e.link, evaluator_.evaluate(*e.candidate, FailureScenario::link(e.link)).cost());
      });
    }
  }
  phase1_search.set_on_accept([&store](const WeightSetting& w, const CostPair& cost) {
    store.offer(w, cost);
  });
  phase1_search.set_on_move(
      [&record_move](const MoveRecord& m) { record_move(1, "phase1", m); });

  WeightSetting initial(num_links);
  if (config_.warm_start) {
    initial = make_warm_start(graph, config_.wmax);
  } else {
    randomize_weights(initial, config_.wmax, rng);
  }
  const LocalSearch::Result phase1 = phase1_search.run(normal_objective, initial);

  result.regular = phase1.best;
  result.regular_cost = phase1.best_cost;
  result.phase1_evaluations = phase1.evaluations;
  result.phase1_diversifications = phase1.diversifications;
  result.phase1a_samples = collector.total_samples();
  store.offer(phase1.best, phase1.best_cost);
  result.phase1_seconds = seconds_since(phase1_start);
  phase_end("phase1a", phase1);

  // ------------- Phase 1b: top-up sampling until rank convergence ---------
  const auto phase1b_start = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1b");
  // Samples must stay conditioned on acceptable routings: the pool of
  // acceptable stored settings, shared by the per-link and catalog samplers.
  // The Phase 1 incumbent is acceptable by definition, so it is never empty.
  const AcceptableStore::Entry incumbent_entry{result.regular, result.regular_cost};
  const auto acceptable_entries = [&] {
    std::vector<const AcceptableStore::Entry*> entry_pool;
    entry_pool.push_back(&incumbent_entry);
    for (std::size_t i = 0; i < store.size(); ++i) {
      const AcceptableStore::Entry& entry = store.entry(i);
      if (collector.cost_acceptable(entry.cost, result.regular_cost))
        entry_pool.push_back(&entry);
    }
    return entry_pool;
  };
  // Churn baseline: the top-|Ec| selection Phase 1a's samples alone imply,
  // under the same probability scaling Phase 1c will apply. Compared against
  // the final selection to report how much the 1b top-up moved it.
  std::vector<LinkId> pre_critical;
  if (selector_needs_samples && config_.selector == SelectorKind::kDistributionGap) {
    CriticalityEstimates pre = collector.estimates();
    if (!link_probabilities.empty()) {
      for (LinkId l = 0; l < num_links; ++l) {
        pre.rho_lambda[l] *= link_probabilities[l];
        pre.rho_phi[l] *= link_probabilities[l];
      }
    }
    pre_critical = select_critical_links(pre, critical_target_size()).critical;
  }
  if (selector_needs_samples) {
    const long budget = config_.max_phase1b_samples > 0
                            ? config_.max_phase1b_samples
                            : 20L * config_.criticality.tau * static_cast<long>(num_links);
    const std::vector<const AcceptableStore::Entry*> entry_pool = acceptable_entries();
    const long generated = top_up_criticality_samples(
        evaluator_, collector, entry_pool, config_.sampling_mode, config_.wmax, budget,
        rng, pool.get());
    result.phase1b_samples = static_cast<std::size_t>(generated);
    result.criticality_converged = collector.converged();
    result.estimates = collector.estimates();
  } else if (catalog_mode && config_.selector == SelectorKind::kDistributionGap) {
    // Phase 1b': catalog criticality — the distribution-gap estimator over
    // compound scenarios instead of single links.
    const long budget =
        config_.max_phase1b_samples > 0
            ? config_.max_phase1b_samples
            : 20L * config_.criticality.tau * static_cast<long>(objective->set.size());
    const std::vector<const AcceptableStore::Entry*> entry_pool = acceptable_entries();
    const ScenarioCriticality crit = estimate_scenario_criticality(
        evaluator_, objective->set.scenarios(), entry_pool, config_.criticality, budget,
        rng, pool.get());
    result.scenario_estimates = crit.estimates;
    result.scenario_rank_converged = crit.converged;
    result.scenario_samples = static_cast<std::size_t>(crit.samples);
  }
  result.phase1b_seconds = seconds_since(phase1b_start);
  phase_marker(telemetry::EventKind::kPhaseEnd, "phase1b");

  // ---------------- Phase 1c: critical set selection ----------------------
  const auto phase1c_start = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1c");
  const std::size_t target = critical_target_size();
  if (catalog_mode) {
    result.catalog_size = objective->set.size();
    switch (config_.selector) {
      case SelectorKind::kDistributionGap: {
        // Expected regret: scale each scenario's distribution gap by its
        // probability mass before Algorithm 1 selection (the catalog
        // analogue of the per-link probabilistic scaling below).
        CriticalityEstimates estimates = result.scenario_estimates;
        const std::span<const double> catalog_weights = objective->set.weights();
        for (std::size_t i = 0; i < estimates.rho_lambda.size(); ++i) {
          estimates.rho_lambda[i] *= catalog_weights[i];
          estimates.rho_phi[i] *= catalog_weights[i];
        }
        const std::vector<LinkId> picked = select_critical_links(estimates, target).critical;
        result.critical_scenarios.assign(picked.begin(), picked.end());
        break;
      }
      case SelectorKind::kRandom: {
        Rng selector_rng = rng.split();
        const std::vector<LinkId> picked =
            select_random_links(objective->set.size(), target, selector_rng);
        result.critical_scenarios.assign(picked.begin(), picked.end());
        break;
      }
      case SelectorKind::kFullSearch:
        result.critical_scenarios.resize(objective->set.size());
        for (std::size_t i = 0; i < result.critical_scenarios.size(); ++i)
          result.critical_scenarios[i] = i;
        break;
      case SelectorKind::kLoad:
      case SelectorKind::kThresholdCrossing:
        throw std::invalid_argument(
            "RobustOptimizer: selector not supported with a scenario-catalog "
            "objective (use distribution-gap, random, or full-search)");
    }
    // Ec diagnostic: the physical links the selected scenarios can take down.
    std::vector<LinkId> links;
    for (const std::size_t i : result.critical_scenarios)
      for_each_failed_element(
          objective->set.scenario(i), [&](LinkId l) { links.push_back(l); },
          [](NodeId) {});
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    result.critical = std::move(links);
  } else {
    switch (config_.selector) {
      case SelectorKind::kDistributionGap: {
        CriticalityEstimates estimates = result.estimates;
        if (!link_probabilities.empty()) {
          // Probabilistic extension: criticality becomes the expected regret
          // p_l * (mean - left-tail mean).
          for (LinkId l = 0; l < num_links; ++l) {
            estimates.rho_lambda[l] *= link_probabilities[l];
            estimates.rho_phi[l] *= link_probabilities[l];
          }
        }
        result.critical = select_critical_links(estimates, target).critical;
        break;
      }
      case SelectorKind::kRandom: {
        Rng selector_rng = rng.split();
        result.critical = select_random_links(num_links, target, selector_rng);
        break;
      }
      case SelectorKind::kLoad:
        result.critical = select_by_load(evaluator_, result.regular, target);
        break;
      case SelectorKind::kThresholdCrossing:
        result.critical = select_by_threshold_crossings(collector, target);
        break;
      case SelectorKind::kFullSearch:
        result.critical.resize(num_links);
        for (LinkId l = 0; l < num_links; ++l) result.critical[l] = l;
        break;
    }
  }
  if (!pre_critical.empty()) {
    std::vector<LinkId> pre = pre_critical;
    std::vector<LinkId> post = result.critical;
    std::sort(pre.begin(), pre.end());
    std::sort(post.begin(), post.end());
    std::vector<LinkId> gained;
    std::set_difference(post.begin(), post.end(), pre.begin(), pre.end(),
                        std::back_inserter(gained));
    result.critical_churn = gained.size();
  }
  phase_marker(telemetry::EventKind::kPhaseEnd, "phase1c");

  // ---------------- Phase 2: robust optimization (Eq. 4) ------------------
  const auto phase2_start = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase2");
  std::vector<FailureScenario> scenarios;
  std::vector<double> scenario_weights;
  if (catalog_mode) {
    scenarios.reserve(result.critical_scenarios.size());
    scenario_weights.reserve(result.critical_scenarios.size());
    for (const std::size_t i : result.critical_scenarios) {
      scenarios.push_back(objective->set.scenario(i));
      scenario_weights.push_back(objective->set.weight(i));
    }
  } else {
    scenarios.reserve(result.critical.size());
    for (LinkId l : result.critical) {
      scenarios.push_back(FailureScenario::link(l));
      if (!link_probabilities.empty())
        scenario_weights.push_back(link_probabilities.at(l));
    }
  }

  std::unique_ptr<Phase2Objective> robust_objective;
  const AggregationMode mode =
      catalog_mode ? objective->mode : AggregationMode::kExpectedCost;
  switch (mode) {
    case AggregationMode::kExpectedCost:
      robust_objective = std::make_unique<ExpectedCostObjective>(
          evaluator_, std::move(scenarios), std::move(scenario_weights),
          result.regular_cost, config_.chi, pool.get());
      break;
    case AggregationMode::kWeightedPercentile:
      robust_objective = std::make_unique<PercentileObjective>(
          evaluator_, std::move(scenarios), std::move(scenario_weights),
          objective->percentile, result.regular_cost, config_.chi, pool.get());
      break;
    case AggregationMode::kExpectedDowntime:
      robust_objective = std::make_unique<DowntimeObjective>(
          evaluator_, std::move(scenarios), std::move(scenario_weights),
          objective->period_minutes, result.regular_cost, config_.chi, pool.get());
      break;
  }

  const auto feasible =
      store.feasible_entries(result.regular_cost.lambda, result.regular_cost.phi,
                             config_.chi);
  // Phase 2 screens candidates against constraints (5)/(6) speculatively on
  // the pool, like Phase 1a; the survivors' sweeps run in probe order on this
  // thread and parallelize across the pool inside the sweep.
  LocalSearch phase2_search({config_.phase2, config_.wmax, rng.split().seed(), pool.get()});
  const WeightSetting regular_best = result.regular;  // stable restart fallback
  const int wmax = config_.wmax;
  // Diversification restarts draw a recorded feasible setting and jitter a
  // random ~10% of links: the feasible pool is often small (constraints (5)
  // and (6) are tight), and unjittered restarts would keep replaying the
  // same trajectory. LocalSearch re-draws on infeasible restarts.
  phase2_search.set_restart([&feasible, regular_best, wmax](Rng& restart_rng) {
    WeightSetting w = feasible.empty()
                          ? regular_best
                          : feasible[restart_rng.uniform_index(feasible.size())]->setting;
    const std::size_t jitters = 1 + w.num_links() / 10;
    for (std::size_t j = 0; j < jitters; ++j) {
      const LinkId link = static_cast<LinkId>(restart_rng.uniform_index(w.num_links()));
      w.set(TrafficClass::kDelay, link, restart_rng.uniform_int(1, wmax));
      w.set(TrafficClass::kThroughput, link, restart_rng.uniform_int(1, wmax));
    }
    return w;
  });

  phase2_search.set_on_move(
      [&record_move](const MoveRecord& m) { record_move(2, "phase2", m); });
  if (events != nullptr) {
    // Process-plane progress heartbeat: a tick every 256 probes so a live
    // tail shows Phase 2 moving even between accepts. Total is unknown (the
    // stopping rule is stall-based), so it stays 0.
    phase2_search.set_observer([events, probes = 0L](const PerturbationEvent&) mutable {
      if (++probes % 256 != 0) return;
      telemetry::Event e;
      e.kind = telemetry::EventKind::kProgress;
      e.label = "phase2";
      e.done = static_cast<std::uint64_t>(probes);
      telemetry::publish_process(events, std::move(e));
    });
  }

  const LocalSearch::Result phase2 = phase2_search.run(*robust_objective, result.regular);
  result.robust = phase2.best;
  result.robust_kfail = phase2.best_cost;
  result.robust_normal_cost = evaluator_.evaluate(result.robust).cost();
  result.phase2_evaluations = phase2.evaluations;
  result.phase2_scenario_evaluations = robust_objective->scenario_evaluations();
  result.phase2_diversifications = phase2.diversifications;
  result.phase2_seconds = seconds_since(phase2_start);
  if (catalog_mode) result.robust_objective_value = phase2.best_cost.lambda;
  phase_end("phase2", phase2);

  // Per-link change attribution: which links the accepted moves touched.
  {
    std::vector<std::uint64_t> changes(num_links, 0);
    for (const TraceMove& t : result.trace)
      if (!t.move.restart && t.move.link != kInvalidLink) ++changes[t.move.link];
    for (LinkId l = 0; l < num_links; ++l)
      if (changes[l] > 0) result.link_changes.emplace_back(l, changes[l]);
  }

  // ---------------- Telemetry: run-local collection -----------------------
  // A run-local registry always collects (the snapshots back the
  // OptimizeResult accessors, enable switch or not); the config's sink gets
  // the deterministic plane + phase spans merged in at the end. The cache
  // diff stays process-plane-local: publishing evaluator cache numbers is
  // the evaluator OWNER's job (flush_cache_stats_to_telemetry), once.
  const auto phase2_end = Clock::now();
  telemetry::Registry run_reg;
  run_reg.counter("optimizer.runs").add(1);
  run_reg.counter("optimizer.phase1_evaluations")
      .add(static_cast<std::uint64_t>(result.phase1_evaluations));
  run_reg.counter("optimizer.phase1_diversifications")
      .add(static_cast<std::uint64_t>(result.phase1_diversifications));
  run_reg.counter("optimizer.phase1a_samples").add(result.phase1a_samples);
  run_reg.counter("optimizer.phase1b_samples").add(result.phase1b_samples);
  run_reg.counter("optimizer.scenario_samples").add(result.scenario_samples);
  run_reg.counter("optimizer.phase2_evaluations")
      .add(static_cast<std::uint64_t>(result.phase2_evaluations));
  run_reg.counter("optimizer.phase2_scenario_evaluations")
      .add(static_cast<std::uint64_t>(result.phase2_scenario_evaluations));
  run_reg.counter("optimizer.phase2_diversifications")
      .add(static_cast<std::uint64_t>(result.phase2_diversifications));
  run_reg.counter("optimizer.critical_links").add(result.critical.size());
  run_reg.counter("optimizer.critical_scenarios").add(result.critical_scenarios.size());

  const EvaluatorCacheStats cache_after = evaluator_.base_cache_stats();
  run_reg.counter("evaluator.base_cache.hits", telemetry::Plane::kProcess)
      .add(cache_after.hits - cache_before.hits);
  run_reg.counter("evaluator.base_cache.misses", telemetry::Plane::kProcess)
      .add(cache_after.misses - cache_before.misses);
  run_reg.counter("evaluator.base_cache.insertions", telemetry::Plane::kProcess)
      .add(cache_after.insertions - cache_before.insertions);
  run_reg.counter("evaluator.base_cache.evictions", telemetry::Plane::kProcess)
      .add(cache_after.evictions - cache_before.evictions);

  result.counters = run_reg.snapshot(telemetry::Plane::kDeterministic);
  result.process_counters = run_reg.snapshot(telemetry::Plane::kProcess);

  if (telemetry::Registry* sink = telemetry::effective(config_.telemetry)) {
    const auto ns = [](Clock::time_point tp) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
              .count());
    };
    sink->merge_counters(result.counters);
    sink->merge_spans(
        {{"optimizer.phase1a", ns(phase1_start), ns(phase1b_start) - ns(phase1_start), 0, 0},
         {"optimizer.phase1b", ns(phase1b_start), ns(phase1c_start) - ns(phase1b_start), 0,
          0},
         {"optimizer.phase1c", ns(phase1c_start), ns(phase2_start) - ns(phase1c_start), 0,
          0},
         {"optimizer.phase2", ns(phase2_start), ns(phase2_end) - ns(phase2_start), 0, 0}});
  }
  return result;
}

}  // namespace dtr
