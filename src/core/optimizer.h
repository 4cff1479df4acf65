#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/acceptable_store.h"
#include "core/critical_selector.h"
#include "core/criticality.h"
#include "core/local_search.h"
#include "routing/evaluator.h"
#include "scenarios/hardening.h"
#include "util/presets.h"

namespace dtr {

namespace telemetry {
class EventBus;
class Registry;
}

/// Which critical-link selector drives Phase 2 (Sec. IV-C comparison).
enum class SelectorKind : std::uint8_t {
  kDistributionGap,    ///< this paper: mean minus left-tail mean + Algorithm 1
  kRandom,             ///< Yuan 2003
  kLoad,               ///< Fortz-Thorup 2003
  kThresholdCrossing,  ///< Sridharan-Guerin 2005
  kFullSearch,         ///< Ec = E (brute force reference)
};

std::string to_string(SelectorKind k);

struct OptimizerConfig {
  int wmax = 100;
  PhaseParams phase1{100, 20, 0.001, 0};
  PhaseParams phase2{30, 10, 0.001, 0};
  CriticalityParams criticality{};
  /// |Ec| = max(1, round(critical_fraction * |E|)) unless critical_count > 0.
  double critical_fraction = 0.15;
  std::size_t critical_count = 0;
  /// Constraint (6) relaxation: Phi_normal <= (1+chi) * Phi*.
  double chi = 0.2;
  std::uint64_t seed = 1;
  /// Start Phase 1 from the delay-proportional warm start instead of random.
  bool warm_start = true;
  /// Phase 1b sample budget; 0 = 20 * tau * |E|.
  long max_phase1b_samples = 0;
  SamplingMode sampling_mode = SamplingMode::kExactFailure;
  SelectorKind selector = SelectorKind::kDistributionGap;
  /// Failure-scenario evaluation parallelism: 0 = one worker per hardware
  /// thread, 1 = strictly sequential (the seed behavior), N = N workers.
  /// The engine is deterministic — results are bit-identical for ANY value;
  /// only wall-clock time changes. Parallelism covers Phase 1a candidate
  /// scoring (speculative probes), Phase 1b sampling batches, Phase 2
  /// constraint screening (speculative probes) and the Phase 2
  /// critical-scenario sweeps.
  int num_threads = 1;
  /// Hardening objective: the failure catalog the run hardens against and
  /// the aggregation Phase 2 minimizes over it (expected cost / weighted
  /// percentile / expected downtime). Unset means every single-link failure
  /// at unit weight under expected cost. Phases 1b, 1c and 2 run one code
  /// path over catalog positions: Phase 1b samples each scenario's
  /// distribution gap, Phase 1c ranks the gaps scaled by the scenario
  /// weights, and Phase 2 sweeps the selected critical sub-catalog. When the
  /// catalog is the per-link shape (is_per_link_shaped: one single-link
  /// failure per link in link order, expected cost), positions are link ids
  /// and the link-only parts apply: Phase 1a perturbation sampling,
  /// emulated-weights sampling, and the load and threshold-crossing
  /// selectors. Other catalogs reject those two selectors and sample exactly.
  std::optional<HardeningObjective> objective;
  /// Optional telemetry sink (borrowed; null = no telemetry). At the end of
  /// optimize() the run adds its deterministic optimizer.* counters and its
  /// four phase spans to it. Base-cache totals are not published here: the
  /// evaluator's OWNER publishes them once, via
  /// Evaluator::flush_cache_stats_to_telemetry, and a second publication
  /// would double-count. The evaluator's own eval.*/spf.* counters flow
  /// through EvaluatorConfig::telemetry, fixed when the evaluator was
  /// constructed, not through this field.
  telemetry::Registry* telemetry = nullptr;
  /// Optional streaming event sink (borrowed; null = no events). While
  /// optimize() runs it receives deterministic-plane phase markers and one
  /// iteration record per committed search move (published on the calling
  /// thread in iteration order — byte-identical for any num_threads, and
  /// field for field the entries of OptimizeResult::trace) plus
  /// process-plane Phase-2 progress ticks.
  telemetry::EventBus* events = nullptr;
};

/// Paper-ratio configs at the given effort level: kFull is the paper's
/// budgets (Sec. V-A3), quick and smoke shrink them.
OptimizerConfig default_optimizer_config(Effort effort, std::uint64_t seed);

/// One committed search move of the convergence trace, tagged with the phase
/// it happened in (1 = regular optimization of K_normal, 2 = robust
/// optimization of the failure objective).
struct TraceMove {
  int phase = 1;
  MoveRecord move;
};

struct OptimizeResult {
  // Phase 1 ("regular optimization", Eq. (3)) output:
  WeightSetting regular;
  CostPair regular_cost;  ///< Lambda*, Phi*

  // Phase 2 ("robust optimization", Eq. (4) s.t. (5)(6)) output:
  WeightSetting robust;
  CostPair robust_normal_cost;  ///< normal-condition cost of the robust setting
  CostPair robust_kfail;        ///< K_fail-bar over the critical set

  std::vector<LinkId> critical;  ///< Ec
  CriticalityEstimates estimates;
  bool criticality_converged = false;
  std::size_t phase1a_samples = 0;  ///< failure-like samples from Phase 1a
  std::size_t phase1b_samples = 0;  ///< top-up samples from Phase 1b
  /// Evaluations run to produce the criticality samples (phase1a, phase1b
  /// and scenario samples): exact-failure sampling evaluates each distinct
  /// (setting, scenario) pair once and reuses it for repeated draws, and
  /// emulated Phase-1a samples cost none.
  std::size_t samples_evaluated = 0;

  // Catalog-objective diagnostics (zero / empty when the catalog has the
  // per-link shape — no objective, or objective_from_link_probabilities):
  std::size_t catalog_size = 0;  ///< |S| of the hardening catalog, 0 = per-link run
  std::vector<std::size_t> critical_scenarios;  ///< Sc: catalog positions, ascending
  CriticalityEstimates scenario_estimates;      ///< indexed by catalog position
  bool scenario_rank_converged = false;
  std::size_t scenario_samples = 0;  ///< Phase 1b catalog-criticality samples
  /// Phase-2 objective value of `robust` under the catalog aggregation
  /// (expected cost / percentile cost / expected avoidable downtime minutes,
  /// by objective->mode). NaN for per-link runs.
  double robust_objective_value = std::numeric_limits<double>::quiet_NaN();

  /// Convergence trace: every committed move (probe accepts + restart
  /// adoptions) of both search phases, in execution order — cost-vs-iteration
  /// per phase. Deterministic: byte-identical for any worker/thread shape.
  std::vector<TraceMove> trace;
  /// Per-link change attribution over the trace: how many accepted moves
  /// changed each link (restart adoptions excluded). Ascending by link id;
  /// links never changed are omitted.
  std::vector<std::pair<LinkId, std::uint64_t>> link_changes;
  /// Critical-set churn: how many of the finally selected critical links were
  /// NOT in the top-|Ec| ranking before Phase 1b topped up samples — how much
  /// the top-up moved the selection (0 = 1b confirmed 1a's view). Computed
  /// for the per-link distribution-gap selector only.
  std::size_t critical_churn = 0;

  double phase1_seconds = 0.0;
  double phase1b_seconds = 0.0;
  double phase2_seconds = 0.0;
  long phase1_evaluations = 0;
  long phase2_evaluations = 0;
  long phase2_scenario_evaluations = 0;  ///< failure-scenario evals inside Phase 2
  int phase1_diversifications = 0;
  int phase2_diversifications = 0;
};

/// The paper's two-phase heuristic (Fig. 1): Phase 1 optimizes K_normal and
/// collects failure-like cost statistics; Phase 1b tops up statistics until
/// the criticality ranking converges; Phase 1c picks the critical set;
/// Phase 2 minimizes the compound failure cost over the critical set, subject
/// to not degrading delay-class performance (Eq. 5) and bounding the
/// throughput-class degradation (Eq. 6).
class RobustOptimizer {
 public:
  /// `evaluator` must outlive the optimizer.
  RobustOptimizer(const Evaluator& evaluator, OptimizerConfig config);

  OptimizeResult optimize();

  /// Critical-set size implied by the config for this instance.
  std::size_t critical_target_size() const;

 private:
  const Evaluator& evaluator_;
  OptimizerConfig config_;
};

}  // namespace dtr
