#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/acceptable_store.h"
#include "core/local_search.h"
#include "core/rank_convergence.h"
#include "cost/cost_types.h"
#include "graph/graph.h"
#include "routing/evaluator.h"
#include "util/rng.h"

namespace dtr {

class ThreadPool;

/// How post-failure cost samples are generated for criticality estimation.
enum class SamplingMode : std::uint8_t {
  /// The paper's literal scheme: piggyback on Phase 1a weight perturbations
  /// that land both weights in [q*wmax, wmax] (failure emulation); Phase 1b
  /// tops up with the same kind of perturbations until the ranking converges.
  /// Fidelity depends on wmax dominating typical path costs.
  kEmulatedWeights,
  /// Default: same trigger points, but the recorded sample evaluates the
  /// TRUE link failure (the paper motivates emulation as approximating an
  /// "infinite weight"; this removes the approximation for one extra
  /// evaluation per trigger). bench_selector_ablation compares both.
  kExactFailure,
};

std::string to_string(SamplingMode m);

/// Parameters of the criticality estimation pipeline (Sec. IV-D1).
struct CriticalityParams {
  /// A perturbation emulates a failure when both new weights land in
  /// [q * wmax, wmax].
  double q = 0.7;
  /// Lambda acceptability relaxation: pre-perturbation Lambda may exceed the
  /// incumbent best by at most z * B1.
  double z = 0.5;
  /// Phi acceptability relaxation (the same chi as constraint (6)).
  double chi = 0.2;
  /// "Left tail" = the smallest `left_tail_fraction` of the samples.
  double left_tail_fraction = 0.10;
  /// Rank lists refresh every tau * |E| new samples (paper: 30).
  int tau = 30;
  /// Convergence threshold e on the weighted rank-change index (paper: 2).
  double convergence_threshold = 2.0;
  /// Reservoir cap per link (memory bound; the paper keeps all samples).
  std::size_t max_samples_per_link = 4000;
};

/// Per-link criticality estimates (Eqs. (8)/(9)):
///   rho_Lambda,l = mean(Lambda_fail,l) - left_tail_mean(Lambda_fail,l)
///   rho_Phi,l    = mean(Phi_fail,l)    - left_tail_mean(Phi_fail,l)
/// computed over the *acceptable-routing* conditional cost distributions.
struct CriticalityEstimates {
  std::vector<double> rho_lambda;
  std::vector<double> rho_phi;
  std::vector<double> mean_lambda;   ///< Lambda-hat_fail,l
  std::vector<double> mean_phi;      ///< Phi-hat_fail,l
  std::vector<double> tail_lambda;   ///< Lambda-tilde_fail,l (left-tail mean)
  std::vector<double> tail_phi;      ///< Phi-tilde_fail,l
};

/// Collects per-link post-"failure" cost samples and turns them into
/// criticality estimates. Samples arrive either from the Phase 1a observer
/// (failure-emulating weight perturbations) or are force-fed by Phase 1b /
/// the exact-failure sampling mode.
class CriticalityCollector {
 public:
  CriticalityCollector(std::size_t num_links, int wmax, double b1,
                       const CriticalityParams& params, std::uint64_t seed);

  /// Sampling trigger shared by both sampling modes: the candidate is
  /// feasible, (a) both new weights are in the emulation window and (b) the
  /// pre-perturbation costs are acceptable relative to the phase's
  /// best-so-far (the z/chi relaxations).
  bool should_sample(const PerturbationEvent& event) const;

  /// Observer hook for LocalSearch (Phase 1a), emulated-weights mode:
  /// records cost_after for the perturbed link when should_sample passes.
  void on_perturbation(const PerturbationEvent& event);

  /// Direct sample injection (Phase 1b top-up, exact-failure mode, tests).
  void add_sample(LinkId link, const CostPair& cost);

  std::size_t num_links() const { return num_links_; }
  std::size_t sample_count(LinkId link) const;
  std::size_t total_samples() const { return total_samples_; }
  /// Links with fewer samples first — Phase 1b prioritizes them.
  std::vector<LinkId> links_by_sample_need() const;

  std::span<const double> lambda_samples(LinkId link) const;
  std::span<const double> phi_samples(LinkId link) const;

  /// Recomputes Eq. (8)/(9) estimates from the current samples.
  CriticalityEstimates estimates() const;

  /// True once both classes' rank orders have stabilized (S <= e for both,
  /// with at least two tau-spaced updates).
  bool converged() const;
  /// Samples that can still be added before the next rank-list refresh (the
  /// only event that can change `converged()`). Phase 1b batches up to this
  /// many evaluations in parallel without altering the sequential semantics.
  std::size_t samples_until_next_rank_update() const;
  double last_lambda_index() const { return lambda_tracker_.last_index(); }
  double last_phi_index() const { return phi_tracker_.last_index(); }
  std::size_t rank_updates() const { return lambda_tracker_.updates(); }

  const CriticalityParams& params() const { return params_; }
  /// Lower edge of the failure-emulation weight window, ceil(q * wmax).
  int emulation_weight_floor() const { return emulation_floor_; }

  /// The acceptability predicate (exposed for Phase 1b and tests):
  /// Lambda <= best.lambda + z*B1 and Phi <= (1+chi) * best.phi.
  bool cost_acceptable(const CostPair& cost, const CostPair& best) const;

 private:
  void maybe_update_ranks();

  CriticalityParams params_;
  int emulation_floor_;
  double b1_;
  std::size_t num_links_;
  std::vector<std::vector<double>> lambda_samples_;
  std::vector<std::vector<double>> phi_samples_;
  std::vector<std::size_t> offered_;  ///< per link, for reservoir replacement
  std::size_t total_samples_ = 0;
  std::size_t next_rank_update_at_;
  RankTracker lambda_tracker_;
  RankTracker phi_tracker_;
  Rng rng_;
};

/// Work of one top_up_criticality_samples call.
struct TopUpCounts {
  long drawn = 0;      ///< samples fed to the collector
  long evaluated = 0;  ///< evaluations run to produce them (<= drawn)
};

/// Phase 1b top-up sampling (Fig. 1): draws acceptable settings from
/// `entries`, generates failure(-like) cost samples for the least-sampled
/// catalog entries, and feeds the collector until the criticality ranking
/// converges or `budget` samples were drawn. Collector index i describes
/// `scenarios[i]`, so the collector must span exactly the catalog. Exact
/// mode evaluates the drawn setting under `scenarios[i]`, once per distinct
/// (entry, position) pair in the call — a repeated draw reuses the first
/// result, so `evaluated` can be far below `drawn`; emulated mode evaluates
/// every draw, perturbing the failed link's weights into the emulation
/// window, so it needs single-link scenarios.
///
/// The evaluation of each batch runs on `pool` (nullptr = sequential), but
/// the result stream is bit-identical for any worker count: jobs are drawn
/// from `rng` in exactly the order the sequential loop would draw them, and
/// a batch never crosses a rank-update boundary — the only point where
/// `collector.converged()` can flip.
TopUpCounts top_up_criticality_samples(const Evaluator& evaluator,
                                       CriticalityCollector& collector,
                                       std::span<const FailureScenario> scenarios,
                                       std::span<const AcceptableStore::Entry* const> entries,
                                       SamplingMode mode, int wmax, long budget, Rng& rng,
                                       ThreadPool* pool = nullptr);

}  // namespace dtr
