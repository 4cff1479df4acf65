#include "core/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
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
  void adopt(const WeightSetting& w) override { evaluator_.pin_incumbent(w); }

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
  /// Eq. (6) goes first: it needs only Phi, so a candidate failing it never
  /// runs the delay DP that Lambda needs.
  Screening screen(const WeightSetting& w) const final {
    const LexicographicOrder order;
    const std::optional<CostPair> normal =
        evaluator_.evaluate_phi_first(w, (1.0 + chi_) * star_.phi + order.abs_tol());
    if (!normal.has_value()) return Screening::decide(std::nullopt);  // Eq. (6)
    if (!order.values_equal(normal->lambda, star_.lambda))            // Eq. (5)
      return Screening::decide(std::nullopt);
    return Screening::defer();
  }

  void adopt(const WeightSetting& w) final { evaluator_.pin_incumbent(w); }

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

std::unique_ptr<Phase2Objective> make_phase2_objective(
    const Evaluator& evaluator, const HardeningObjective& catalog,
    std::vector<FailureScenario> scenarios, std::vector<double> weights, CostPair star, double chi,
    ThreadPool* pool) {
  switch (catalog.mode) {
    case AggregationMode::kExpectedCost:
      return std::make_unique<ExpectedCostObjective>(
          evaluator, std::move(scenarios), std::move(weights), star, chi, pool);
    case AggregationMode::kWeightedPercentile:
      return std::make_unique<PercentileObjective>(evaluator, std::move(scenarios),
                                                   std::move(weights), catalog.percentile, star,
                                                   chi, pool);
    case AggregationMode::kExpectedDowntime:
      return std::make_unique<DowntimeObjective>(evaluator, std::move(scenarios),
                                                 std::move(weights), catalog.period_minutes, star,
                                                 chi, pool);
  }
  throw std::invalid_argument("RobustOptimizer: unknown aggregation mode");
}

/// Expected regret: each catalog entry's distribution gap scaled by its
/// probability mass, the input Algorithm 1 ranks. Unit weights leave the
/// estimates bit-identical.
CriticalityEstimates weighted_by(CriticalityEstimates estimates, std::span<const double> weights) {
  for (std::size_t i = 0; i < estimates.rho_lambda.size(); ++i) {
    estimates.rho_lambda[i] *= weights[i];
    estimates.rho_phi[i] *= weights[i];
  }
  return estimates;
}

/// One optimize() call: the phases of Fig. 1 over one failure catalog, in
/// order, sharing the RNG stream, the worker pool and the result they fill
/// in. Every phase indexes the catalog by position. When the catalog is the
/// per-link shape, positions are link ids, and the paper's link-only
/// machinery applies: Phase 1a perturbation sampling, emulated-weights
/// sampling, and the load and threshold-crossing selectors.
class OptimizeRun {
 public:
  OptimizeRun(const Evaluator& evaluator, const OptimizerConfig& config,
              const HardeningObjective& catalog, std::size_t target)
      : evaluator_(evaluator),
        config_(config),
        catalog_(catalog),
        per_link_(is_per_link_shaped(catalog, evaluator.graph().num_links())),
        target_(target),
        rng_(config.seed),
        link_collector_(evaluator.graph().num_links(), config.wmax, evaluator.params().sla.b1,
                        config.criticality, rng_.split().seed()),
        store_(kAcceptableStoreCapacity, rng_.split().seed()) {}

  OptimizeResult run();

 private:
  /// Phase 1b sampling feeds the distribution-gap and threshold selectors.
  bool samples_needed() const {
    return config_.selector == SelectorKind::kDistributionGap ||
           config_.selector == SelectorKind::kThresholdCrossing;
  }
  /// The criticality estimates of the catalog, in the result field the run's
  /// shape reports them in.
  CriticalityEstimates& estimates() {
    return per_link_ ? result_.estimates : result_.scenario_estimates;
  }

  void phase1a();
  void phase1b();
  void phase1c();
  void phase2();
  void collect_telemetry();

  void phase_marker(telemetry::EventKind kind, std::string_view label) const;
  void phase_end(std::string_view label, const LocalSearch::Result& r) const;
  void record_move(int phase, std::string_view label, const MoveRecord& m);

  const Evaluator& evaluator_;
  const OptimizerConfig& config_;
  const HardeningObjective& catalog_;
  const bool per_link_;
  const std::size_t target_;
  Rng rng_;
  CriticalityCollector link_collector_;
  AcceptableStore store_;
  std::unique_ptr<ThreadPool> pool_;
  OptimizeResult result_;
  std::vector<std::size_t> critical_;  ///< selected catalog positions
  std::vector<LinkId> pre_critical_;   ///< churn baseline
  Clock::time_point phase1a_start_, phase1b_start_, phase1c_start_, phase2_start_;
};

void OptimizeRun::phase_marker(telemetry::EventKind kind, std::string_view label) const {
  if (config_.events == nullptr) return;
  telemetry::Event e;
  e.kind = kind;
  e.label = std::string(label);
  telemetry::publish_deterministic(config_.events, std::move(e));
}

void OptimizeRun::phase_end(std::string_view label, const LocalSearch::Result& r) const {
  if (config_.events == nullptr) return;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kPhaseEnd;
  e.label = std::string(label);
  e.iteration = static_cast<std::uint64_t>(r.iterations);
  e.evaluations = static_cast<std::uint64_t>(r.evaluations);
  e.cost_lambda = r.best_cost.lambda;
  e.cost_phi = r.best_cost.phi;
  telemetry::publish_deterministic(config_.events, std::move(e));
}

// Deterministic-plane publication rides the LocalSearch hook contract: hooks
// run on the calling thread in iteration order, so the event stream is
// byte-identical for any num_threads.
void OptimizeRun::record_move(int phase, std::string_view label, const MoveRecord& m) {
  result_.trace.push_back({phase, m});
  if (telemetry::Registry* live = config_.telemetry) {
    // Live progress for the metrics exposer: the last accepted move is
    // scrapeable mid-run. Process plane — WHEN a scrape observes these is
    // shape-dependent even though the final values are not.
    live->gauge("optimizer.live.phase").set(static_cast<std::uint64_t>(phase));
    live->gauge("optimizer.live.iteration").set(static_cast<std::uint64_t>(m.iteration));
    live->gauge("optimizer.live.evaluations").set(static_cast<std::uint64_t>(m.evaluations));
  }
  if (config_.events == nullptr) return;
  telemetry::Event e;
  e.kind = telemetry::EventKind::kIteration;
  e.label = std::string(label);
  e.iteration = static_cast<std::uint64_t>(m.iteration);
  e.evaluations = static_cast<std::uint64_t>(m.evaluations);
  e.link = m.link == kInvalidLink ? -1 : static_cast<std::int64_t>(m.link);
  e.cost_lambda = m.cost.lambda;
  e.cost_phi = m.cost.phi;
  e.restart = m.restart;
  telemetry::publish_deterministic(config_.events, std::move(e));
}

OptimizeResult OptimizeRun::run() {
  if (!per_link_ && (config_.selector == SelectorKind::kLoad ||
                     config_.selector == SelectorKind::kThresholdCrossing))
    throw std::invalid_argument(
        "RobustOptimizer: selector not supported with a scenario-catalog "
        "objective (use distribution-gap, random, or full-search)");
  // Failure-scenario evaluation pool. num_threads == 1 keeps everything on
  // the calling thread (the seed's sequential path); the engine is
  // deterministic, so any other value changes wall-clock time only.
  if (config_.num_threads < 0)
    throw std::invalid_argument("RobustOptimizer: negative num_threads");
  if (config_.num_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    if (pool_->num_workers() <= 1) pool_.reset();
  }

  phase1a();
  phase1b();
  phase1c();
  phase2();

  // Per-link change attribution: which links the accepted moves touched.
  std::vector<std::uint64_t> changes(evaluator_.graph().num_links(), 0);
  for (const TraceMove& t : result_.trace)
    if (!t.move.restart && t.move.link != kInvalidLink) ++changes[t.move.link];
  for (LinkId l = 0; l < changes.size(); ++l)
    if (changes[l] > 0) result_.link_changes.emplace_back(l, changes[l]);

  collect_telemetry();
  return std::move(result_);
}

// ---------------- Phase 1: regular optimization (Eq. 3) -------------------
void OptimizeRun::phase1a() {
  phase1a_start_ = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1a");
  NormalObjective normal_objective(evaluator_);

  // Exact-mode sampling state (below): the setting the last sampled probe
  // perturbed, and its failure cost per link, memoised until it changes.
  WeightSetting sample_incumbent;
  std::vector<std::optional<CostPair>> sample_memo;
  // Phase 1a probes score under NormalObjective, whose screen decides every
  // probe — LocalSearch's speculative screening scores them all in parallel.
  LocalSearch search({config_.phase1, config_.wmax, rng_.split().seed(), pool_.get()});
  // A probe perturbs one link, so its samples rank catalog positions only
  // when those are link ids.
  if (per_link_ && samples_needed()) {
    if (config_.sampling_mode == SamplingMode::kEmulatedWeights) {
      // Paper-literal: the failure-emulating perturbation's own cost is the
      // sample (free, fidelity limited by wmax).
      search.set_observer(
          [this](const PerturbationEvent& e) { link_collector_.on_perturbation(e); });
    } else {
      // Exact mode: the in-window perturbation only triggers sampling; the
      // recorded cost evaluates the TRUE failure of the link. The perturbed
      // weights are immaterial once its arcs are masked out, so the sample
      // is the INCUMBENT under that failure: its base is cached, and the
      // cost is memoised per link until the incumbent changes.
      search.set_observer([this, &sample_incumbent, &sample_memo](const PerturbationEvent& e) {
        if (!link_collector_.should_sample(e)) return;
        WeightSetting probed_from = *e.candidate;
        probed_from.set(TrafficClass::kDelay, e.link, e.old_weight_delay);
        probed_from.set(TrafficClass::kThroughput, e.link, e.old_weight_tput);
        if (probed_from != sample_incumbent) {
          sample_incumbent = std::move(probed_from);
          sample_memo.assign(sample_incumbent.num_links(), std::nullopt);
        }
        std::optional<CostPair>& sample = sample_memo[e.link];
        if (!sample.has_value()) {
          sample = evaluator_.evaluate(sample_incumbent, FailureScenario::link(e.link)).cost();
          ++result_.samples_evaluated;
        }
        link_collector_.add_sample(e.link, *sample);
      });
    }
  }
  search.set_on_accept(
      [this](const WeightSetting& w, const CostPair& cost) { store_.offer(w, cost); });
  search.set_on_move([this](const MoveRecord& m) { record_move(1, "phase1", m); });

  WeightSetting initial(evaluator_.graph().num_links());
  if (config_.warm_start) {
    initial = make_warm_start(evaluator_.graph(), config_.wmax);
  } else {
    randomize_weights(initial, config_.wmax, rng_);
  }
  const LocalSearch::Result phase1 = search.run(normal_objective, initial);

  result_.regular = phase1.best;
  result_.regular_cost = phase1.best_cost;
  result_.phase1_evaluations = phase1.evaluations;
  result_.phase1_diversifications = phase1.diversifications;
  result_.phase1a_samples = link_collector_.total_samples();
  store_.offer(phase1.best, phase1.best_cost);
  result_.phase1_seconds = seconds_since(phase1a_start_);
  phase_end("phase1a", phase1);
}

// ------------- Phase 1b: top-up sampling until rank convergence -----------
void OptimizeRun::phase1b() {
  phase1b_start_ = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1b");
  if (samples_needed()) {
    // Churn baseline: the top-|Ec| selection Phase 1a's samples alone imply,
    // under the same weighting Phase 1c will apply. Compared against the
    // final selection to report how much the 1b top-up moved it.
    if (per_link_ && config_.selector == SelectorKind::kDistributionGap) {
      const CriticalityEstimates pre =
          weighted_by(link_collector_.estimates(), catalog_.set.weights());
      pre_critical_ = select_critical_links(pre, target_).critical;
    }

    // Samples must stay conditioned on acceptable routings. The Phase 1
    // incumbent is acceptable by definition, so the pool is never empty.
    const AcceptableStore::Entry incumbent{result_.regular, result_.regular_cost};
    std::vector<const AcceptableStore::Entry*> entries{&incumbent};
    for (std::size_t i = 0; i < store_.size(); ++i) {
      const AcceptableStore::Entry& entry = store_.entry(i);
      if (link_collector_.cost_acceptable(entry.cost, result_.regular_cost))
        entries.push_back(&entry);
    }

    // A per-link catalog continues Phase 1a's collector; any other catalog
    // gets a fresh one over its positions.
    const std::size_t catalog_size = catalog_.set.size();
    std::optional<CriticalityCollector> catalog_collector;
    if (!per_link_)
      catalog_collector.emplace(catalog_size, config_.wmax, evaluator_.params().sla.b1,
                                config_.criticality, rng_.split().seed());
    CriticalityCollector& collector = per_link_ ? link_collector_ : *catalog_collector;
    const long budget = config_.max_phase1b_samples > 0
                            ? config_.max_phase1b_samples
                            : 20L * config_.criticality.tau * static_cast<long>(catalog_size);
    // Emulated-weights sampling perturbs a link's weights: link ids only.
    const SamplingMode mode = per_link_ ? config_.sampling_mode : SamplingMode::kExactFailure;
    const TopUpCounts top_up = top_up_criticality_samples(
        evaluator_, collector, catalog_.set.scenarios(), entries, mode, config_.wmax, budget, rng_,
        pool_.get());
    estimates() = collector.estimates();
    result_.samples_evaluated += static_cast<std::size_t>(top_up.evaluated);
    if (per_link_) {
      result_.phase1b_samples = static_cast<std::size_t>(top_up.drawn);
      result_.criticality_converged = collector.converged();
    } else {
      result_.scenario_samples = static_cast<std::size_t>(top_up.drawn);
      result_.scenario_rank_converged = collector.converged();
    }
  }
  result_.phase1b_seconds = seconds_since(phase1b_start_);
  phase_marker(telemetry::EventKind::kPhaseEnd, "phase1b");
}

// ---------------- Phase 1c: critical set selection ------------------------
void OptimizeRun::phase1c() {
  phase1c_start_ = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase1c");
  const std::size_t size = catalog_.set.size();
  std::vector<LinkId> picked;
  switch (config_.selector) {
    case SelectorKind::kDistributionGap: {
      const CriticalityEstimates weighted = weighted_by(estimates(), catalog_.set.weights());
      picked = select_critical_links(weighted, target_).critical;
      break;
    }
    case SelectorKind::kRandom: {
      Rng selector_rng = rng_.split();
      picked = select_random_links(size, target_, selector_rng);
      break;
    }
    case SelectorKind::kLoad:
      picked = select_by_load(evaluator_, result_.regular, target_);
      break;
    case SelectorKind::kThresholdCrossing:
      picked = select_by_threshold_crossings(link_collector_, target_);
      break;
    case SelectorKind::kFullSearch:
      picked.resize(size);
      std::iota(picked.begin(), picked.end(), LinkId{0});
      break;
  }
  critical_.assign(picked.begin(), picked.end());

  if (per_link_) {
    result_.critical = std::move(picked);
  } else {
    result_.catalog_size = size;
    result_.critical_scenarios = critical_;
    // Ec diagnostic: the physical links the selected scenarios can take down.
    std::vector<LinkId> links;
    for (const std::size_t i : critical_)
      for_each_failed_element(
          catalog_.set.scenario(i), [&](LinkId l) { links.push_back(l); }, [](NodeId) {});
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    result_.critical = std::move(links);
  }

  if (!pre_critical_.empty()) {
    std::vector<LinkId> pre = pre_critical_;
    std::vector<LinkId> post = result_.critical;
    std::sort(pre.begin(), pre.end());
    std::sort(post.begin(), post.end());
    std::vector<LinkId> gained;
    std::set_difference(post.begin(), post.end(), pre.begin(), pre.end(),
                        std::back_inserter(gained));
    result_.critical_churn = gained.size();
  }
  phase_marker(telemetry::EventKind::kPhaseEnd, "phase1c");
}

// ---------------- Phase 2: robust optimization (Eq. 4) --------------------
void OptimizeRun::phase2() {
  phase2_start_ = Clock::now();
  phase_marker(telemetry::EventKind::kPhaseStart, "phase2");
  std::vector<FailureScenario> scenarios;
  std::vector<double> weights;
  scenarios.reserve(critical_.size());
  weights.reserve(critical_.size());
  for (const std::size_t i : critical_) {
    scenarios.push_back(catalog_.set.scenario(i));
    weights.push_back(catalog_.set.weight(i));
  }
  const std::unique_ptr<Phase2Objective> objective =
      make_phase2_objective(evaluator_, catalog_, std::move(scenarios), std::move(weights),
                            result_.regular_cost, config_.chi, pool_.get());

  // Phase 2 screens candidates against constraints (5)/(6) speculatively on
  // the pool, like Phase 1a; the survivors' sweeps run in probe order on this
  // thread and parallelize across the pool inside the sweep.
  LocalSearch search({config_.phase2, config_.wmax, rng_.split().seed(), pool_.get()});
  search.set_on_move([this](const MoveRecord& m) { record_move(2, "phase2", m); });
  if (config_.events != nullptr) {
    // Process-plane progress heartbeat: a tick every 256 probes so a live
    // tail shows Phase 2 moving even between accepts. Total is unknown (the
    // stopping rule is stall-based), so it stays 0.
    search.set_observer([events = config_.events, probes = 0L](const PerturbationEvent&) mutable {
      if (++probes % 256 != 0) return;
      telemetry::Event e;
      e.kind = telemetry::EventKind::kProgress;
      e.label = "phase2";
      e.done = static_cast<std::uint64_t>(probes);
      telemetry::publish_process(events, std::move(e));
    });
  }

  const LocalSearch::Result phase2 = search.run(*objective, result_.regular);
  result_.robust = phase2.best;
  result_.robust_kfail = phase2.best_cost;
  result_.robust_normal_cost = evaluator_.evaluate(result_.robust).cost();
  result_.phase2_evaluations = phase2.evaluations;
  result_.phase2_scenario_evaluations = objective->scenario_evaluations();
  result_.phase2_diversifications = phase2.diversifications;
  result_.phase2_seconds = seconds_since(phase2_start_);
  if (!per_link_) result_.robust_objective_value = phase2.best_cost.lambda;
  phase_end("phase2", phase2);
}

// ---------------- Telemetry -----------------------------------------------
// The run's deterministic optimizer.* counters and its phase spans go to the
// config's sink. Base-cache numbers are the evaluator OWNER's to publish
// (flush_cache_stats_to_telemetry), once.
void OptimizeRun::collect_telemetry() {
  telemetry::Registry* sink = config_.telemetry;
  if (sink == nullptr) return;
  const auto phase2_end = Clock::now();
  const auto add = [sink](const char* name, auto value) {
    sink->counter(name).add(static_cast<std::uint64_t>(value));
  };
  add("optimizer.runs", 1);
  add("optimizer.phase1_evaluations", result_.phase1_evaluations);
  add("optimizer.phase1_diversifications", result_.phase1_diversifications);
  add("optimizer.phase1a_samples", result_.phase1a_samples);
  add("optimizer.phase1b_samples", result_.phase1b_samples);
  add("optimizer.samples_evaluated", result_.samples_evaluated);
  add("optimizer.scenario_samples", result_.scenario_samples);
  add("optimizer.phase2_evaluations", result_.phase2_evaluations);
  add("optimizer.phase2_scenario_evaluations", result_.phase2_scenario_evaluations);
  add("optimizer.phase2_diversifications", result_.phase2_diversifications);
  add("optimizer.critical_links", result_.critical.size());
  add("optimizer.critical_scenarios", result_.critical_scenarios.size());

  const auto ns = [](Clock::time_point tp) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count());
  };
  const auto span = [&ns](const char* name, Clock::time_point begin, Clock::time_point end) {
    return telemetry::SpanRecord{name, ns(begin), ns(end) - ns(begin), 0, 0};
  };
  sink->merge_spans({span("optimizer.phase1a", phase1a_start_, phase1b_start_),
                     span("optimizer.phase1b", phase1b_start_, phase1c_start_),
                     span("optimizer.phase1c", phase1c_start_, phase2_start_),
                     span("optimizer.phase2", phase2_start_, phase2_end)});
}

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
  // Written so NaN fails every check: comparisons with NaN are false.
  if (!std::isfinite(config_.critical_fraction) ||
      (config_.critical_count == 0 &&
       !(config_.critical_fraction > 0.0 && config_.critical_fraction <= 1.0)))
    throw std::invalid_argument("RobustOptimizer: critical_fraction outside (0,1]");
  if (!std::isfinite(config_.chi) || config_.chi < 0.0)
    throw std::invalid_argument("RobustOptimizer: chi must be finite and >= 0");
  // The criticality acceptability relaxation chi and constraint (6) chi are
  // the same knob in the paper; keep them consistent.
  config_.criticality.chi = config_.chi;
}

std::size_t RobustOptimizer::critical_target_size() const {
  // The selection universe is the failure catalog: every physical link, or
  // the objective's scenarios.
  const std::size_t universe = config_.objective ? config_.objective->set.size()
                                                 : evaluator_.graph().num_links();
  if (config_.critical_count > 0) return std::min(config_.critical_count, universe);
  const auto target = static_cast<std::size_t>(
      std::lround(config_.critical_fraction * static_cast<double>(universe)));
  return std::max<std::size_t>(1, std::min(target, universe));
}

OptimizeResult RobustOptimizer::optimize() {
  // Resolve the failure model once: the objective's catalog, or every
  // single-link failure at unit weight under expected cost.
  if (config_.objective) {
    validate_objective(*config_.objective, evaluator_.graph());
    return OptimizeRun(evaluator_, config_, *config_.objective, critical_target_size()).run();
  }
  HardeningObjective all_links;
  all_links.set = single_link_scenarios(evaluator_.graph());
  return OptimizeRun(evaluator_, config_, all_links, critical_target_size()).run();
}

}  // namespace dtr
