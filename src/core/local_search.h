#pragma once

#include <functional>
#include <optional>

#include "cost/cost_types.h"
#include "routing/weights.h"

namespace dtr {

class ThreadPool;

/// Stopping/diversification parameters for one search phase (Sec. IV-A).
struct PhaseParams {
  /// Iterations without improvement before a diversification: one uniformly
  /// random setting is drawn and adopted when the objective accepts it,
  /// otherwise the search resumes from its best setting. Phase 1's draws are
  /// always feasible; Phase 2's constraints (5)/(6) reject nearly all of
  /// them, so there it reshuffles from the best. Paper: 100 (Phase 1) /
  /// 30 (Phase 2).
  int diversification_interval = 100;
  /// Stop after this many consecutive diversifications whose best-cost
  /// improvement stayed below `improvement_threshold`. Paper: P1=20 / P2=10.
  int stall_diversifications = 20;
  /// The c% criterion (0.001 == 0.1%).
  double improvement_threshold = 0.001;
  /// Hard safety cap on total diversifications (<=0 means 4x stall budget).
  int max_diversifications = 0;
  /// Hard safety cap on total iterations (<=0 means
  /// 20 * diversification_interval * max_diversifications). Keeps runs
  /// bounded when marginal accepted moves trickle in indefinitely.
  long max_iterations = 0;
};

/// Objective evaluated by the local search. Phase 1 wraps K_normal; Phase 2
/// wraps K_fail over the critical set subject to constraints (5)/(6).
///
/// Scoring is split in two stages so that the cheap, stateless part of an
/// evaluation can run speculatively on pool workers while the expensive or
/// stateful part runs on the calling thread, in probe order, only for probes
/// the search actually commits:
///   1. `screen` either decides a probe outright (its final cost, or
///      infeasible) or defers it;
///   2. `finish` scores a deferred probe.
/// `evaluate` is the sequential composition of the two.
class SearchObjective {
 public:
  /// Stage-1 verdict on one probe: decided with its final cost (nullopt =
  /// infeasible), or deferred to `finish`.
  struct Screening {
    bool deferred = true;
    std::optional<CostPair> cost;  ///< meaningful only when !deferred

    static Screening defer() { return {}; }
    static Screening decide(std::optional<CostPair> cost) { return {false, cost}; }
  };

  virtual ~SearchObjective() = default;

  /// Stage 1. Must be safe to call concurrently with itself: LocalSearch runs
  /// it on pool workers, possibly for probes it later discards, so it must
  /// not write objective state. Default: defer every probe.
  virtual Screening screen(const WeightSetting& /*w*/) const { return Screening::defer(); }

  /// Stage 2: cost of a probe `screen` deferred, or nullopt when `w` violates
  /// the phase's constraints. Runs on the calling thread, in probe order,
  /// once per committed probe — never for a discarded speculative one — so it
  /// may keep state. `incumbent` (may be null) is the currently accepted cost
  /// — objectives can use it as an early-abort bound; if they do, any
  /// returned cost that is not better than `incumbent` must still compare as
  /// not-better (partial sums satisfy this since per-scenario costs are
  /// non-negative).
  virtual std::optional<CostPair> finish(const WeightSetting& w,
                                         const CostPair* incumbent) = 0;

  /// Called whenever LocalSearch sets its current setting outside the probe
  /// path — the initial point, and at each diversification either the
  /// adopted random draw or, when the draw is infeasible, the best setting —
  /// with a setting evaluated earlier. Probes of `w` follow, so
  /// evaluator-backed objectives keep its base cached for them. Must not
  /// change any result. Runs on the calling thread. Default: nothing.
  virtual void adopt(const WeightSetting& /*w*/) {}

  /// Sequential `screen` then, if deferred, `finish`.
  std::optional<CostPair> evaluate(const WeightSetting& w, const CostPair* incumbent) {
    Screening s = screen(w);
    return s.deferred ? finish(w, incumbent) : s.cost;
  }
};

/// Everything an observer learns about one perturbation probe. Drives the
/// Phase 1a criticality sampling (Sec. IV-D1).
struct PerturbationEvent {
  LinkId link = kInvalidLink;
  int new_weight_delay = 0;
  int new_weight_tput = 0;
  CostPair cost_before;              ///< cost of the accepted setting being perturbed
  CostPair global_best;              ///< best cost discovered so far this phase
  std::optional<CostPair> cost_after;  ///< nullopt if candidate infeasible
  bool accepted = false;
  /// The probed setting (current setting with `link`'s weights replaced).
  /// Observers may evaluate it under other scenarios; note that for the
  /// failure of `link` itself the perturbed weights are immaterial (dead arcs
  /// have no cost), so evaluating the candidate equals evaluating the
  /// pre-perturbation setting.
  const WeightSetting* candidate = nullptr;
  /// `link`'s weights before the probe: `candidate` with these restored is
  /// the setting being perturbed.
  int old_weight_delay = 0;
  int old_weight_tput = 0;
};

/// One committed change of the current setting: a probe accept or a restart
/// adoption. Fired on the calling thread in iteration order (bit-identical
/// for any worker count, like the observer), so it is safe to derive
/// deterministic-plane convergence traces and event streams from it.
struct MoveRecord {
  long iteration = 0;       ///< search iteration the move landed in
  long evaluations = 0;     ///< objective evaluations consumed so far
  LinkId link = kInvalidLink;  ///< changed link; kInvalidLink on restart adoption
  CostPair cost;            ///< incumbent cost after the move
  bool restart = false;     ///< diversification restart, not a probe accept
};

/// Per-link random-reassignment local search with diversification restarts —
/// the engine shared by both optimization phases. In every iteration each
/// link (random order) has BOTH its weights redrawn uniformly in [1, wmax];
/// the candidate is kept iff the objective deems it feasible and
/// lexicographically better than the current setting. Each diversification
/// evaluates one uniformly random setting: a feasible draw becomes the
/// current setting (a restart move), an infeasible one sends the search back
/// to its best setting. No diversification is drawn once the iteration cap
/// is reached.
class LocalSearch {
 public:
  struct Config {
    PhaseParams phase;
    int wmax = 100;
    std::uint64_t seed = 1;
    /// Optional worker pool for speculative candidate screening: the next
    /// `pool->num_workers()` probes are screened concurrently under the
    /// assumption that none is accepted, then committed in probe order, with
    /// `finish` run on the calling thread for each deferred probe. Commit
    /// stops at the first accept; the stale tail is discarded and
    /// re-screened. Acceptance decisions, observer events, the RNG stream and
    /// the sequence of `finish` calls are bit-identical to the sequential
    /// search for any worker count — accepts are rare in descent, so most
    /// speculation pays off. Requires `objective.screen` to be safe to call
    /// concurrently (`finish`, observers and accept hooks run on the calling
    /// thread, in order). Evaluator-backed objectives satisfy this: its
    /// evaluation entry points are const and its base-routing cache is
    /// internally synchronized, so speculative probes may populate the cache
    /// from any worker. nullptr = sequential.
    ThreadPool* pool = nullptr;
  };

  struct Result {
    WeightSetting best;
    CostPair best_cost;
    long iterations = 0;
    int diversifications = 0;
    long evaluations = 0;
    long accepted_moves = 0;
  };

  explicit LocalSearch(Config config);

  /// Called for every probed candidate.
  void set_observer(std::function<void(const PerturbationEvent&)> observer);

  /// Called whenever a candidate is accepted (becomes the current setting).
  void set_on_accept(std::function<void(const WeightSetting&, const CostPair&)> on_accept);

  /// Called after every committed move (probe accepts AND restart adoptions)
  /// with its iteration-indexed record — the deterministic convergence feed.
  void set_on_move(std::function<void(const MoveRecord&)> on_move);

  /// Runs the search from `initial`. `initial` must be feasible under the
  /// objective (throws std::invalid_argument otherwise).
  Result run(SearchObjective& objective, const WeightSetting& initial);

 private:
  Config config_;
  std::function<void(const PerturbationEvent&)> observer_;
  std::function<void(const WeightSetting&, const CostPair&)> on_accept_;
  std::function<void(const MoveRecord&)> on_move_;
};

}  // namespace dtr
