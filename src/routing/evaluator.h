#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cost/cost_types.h"
#include "cost/delay_model.h"
#include "cost/sla.h"
#include "graph/graph.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "routing/weights.h"
#include "traffic/traffic_matrix.h"

namespace dtr::telemetry {
class Registry;
}

namespace dtr {

class ThreadPool;

/// Cost-model parameters shared by every evaluation (Sec. III / V-A3).
struct EvalParams {
  DelayModelParams delay_model;
  SlaParams sla;
  SlaDelayMode sla_delay_mode = SlaDelayMode::kExpected;
  /// A disconnected delay-sensitive pair is charged as a violation with this
  /// much excess delay over theta (it can never meet its SLA).
  double disconnect_delay_excess_ms = 100.0;
};

/// How much detail `evaluate` materializes. Costs-only keeps the search hot
/// path allocation-light; Full adds the per-arc and per-SD profiles the
/// figures need.
enum class EvalDetail : std::uint8_t { kCostsOnly, kFull };

/// Bound on the evaluator's cached base records. Sized for the optimizer's
/// working set: the search incumbent plus one batch of speculative probes.
/// The incumbent's entry is held two ways: it is pinned whenever the search
/// adopts a setting outside the probe path (Evaluator::pin_incumbent), and
/// every probe it donates its base to refreshes its LRU stamp — so the
/// incumbent's own probes never evict it. The other entries are plain LRU.
inline constexpr std::size_t kBaseCacheCapacity = 16;

/// A base-cache miss whose weights differ from a cached base on at most this
/// many links (either class) is delta-patched from that donor instead of
/// rebuilt with full Dijkstras. One link is the Phase-1 probe shape: probes
/// perturb ONE link's weights off the incumbent.
inline constexpr std::size_t kWeightDeltaMaxLinks = 1;

/// Per-destination delta-SPF fallback: when a patch would invalidate more
/// than this fraction of one destination's distance labels, that destination
/// is recomputed with a full Dijkstra — past this point the delta
/// bookkeeping stops paying for itself.
inline constexpr double kIncrementalMaxAffectedFraction = 0.25;

/// Execution options of an Evaluator. Separate from the cost-model
/// EvalParams: these change HOW results are computed, never WHAT — both
/// settings of `incremental` produce bit-identical results (test-enforced),
/// so every incremental artifact can be cross-checked by flipping it off.
struct EvaluatorConfig {
  /// The incremental path. A weights-keyed cache (kBaseCacheCapacity
  /// entries, keys compared by VALUE) holds one base record per weight
  /// vector: both class routings plus the no-failure loads and Phi; its
  /// end-to-end delays and Lambda are computed on first use (a served
  /// no-failure result, or evaluate_phi_first within its bound), so pinned
  /// bases and bases only patched from never run the delay DP. A no-failure
  /// evaluate() builds and caches it, so the sweeps / failure evaluations
  /// the optimizer issues for the SAME weights reuse it. Eviction is LRU,
  /// where serving as a donor (below) counts as a use, except for one pinned
  /// entry: the search incumbent, named by pin_incumbent. The replay records are materialized
  /// LAZILY, on the first call that patches a failure from the base, so
  /// Phase-1 probes whose bases are evicted unused never pay for them.
  /// Arc-removal scenarios — single links and links-only compound
  /// scenarios — patch from the base: distance labels are delta-updated per
  /// destination and untouched destinations replay their recorded load
  /// contributions. Scenarios that fail nodes take the full path (their skip
  /// semantics change the demand set, not just arcs). A miss within
  /// kWeightDeltaMaxLinks of a cached base is delta-patched from it; with
  /// the incumbent held in the cache, every single-link probe of it is.
  /// `false` is the reference oracle: a full recompute per evaluation, no
  /// cache.
  bool incremental = true;
  /// Optional telemetry sink (borrowed; may be null). The BATCH entry points
  /// (evaluate_failures, evaluate_costs, sweep) fold their deterministic
  /// counters into it, aggregated per-scenario-slot and merged on the calling
  /// thread — byte-identical across worker/thread shapes. Single evaluate()
  /// calls never publish deterministic counters: the optimizer's speculative
  /// Phase-1 probing issues a shape-dependent NUMBER of them, so per-call
  /// publication would break the cross-shape identity. Base-cache counters
  /// are shape-dependent by nature and flow to the process plane only, via
  /// flush_cache_stats_to_telemetry(). Null is the only "off": the batch
  /// entry points then skip their stats slots entirely.
  telemetry::Registry* telemetry = nullptr;
};

/// Counters of the weights-keyed base-routing cache (monotonic; snapshot via
/// Evaluator::base_cache_stats).
struct EvaluatorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Cache misses whose base was delta-patched from a donor entry (a cached
  /// base differing on <= kWeightDeltaMaxLinks links) instead of rebuilt
  /// with full Dijkstras.
  std::uint64_t weight_patched = 0;
  /// Total arc-cost-change entries applied by those donor patches (both
  /// classes; 2 arcs per changed link on bidirectional topologies).
  std::uint64_t arcs_updated = 0;
};

/// Deterministic per-evaluation counters of one scenario evaluation, folded
/// per-slot into the telemetry registry by the batch entry points. Every
/// field is a pure function of (weights, scenario, config) — never of the
/// execution shape.
struct EvalStats {
  std::uint64_t scenarios_patched = 0;      ///< rode the delta-SPF patch path
  std::uint64_t scenarios_full = 0;         ///< full per-scenario recompute
  std::uint64_t scenarios_served_none = 0;  ///< no-failure served from base
  PatchStats patch;                         ///< delta-SPF / replay / delay-DP work

  void merge(const EvalStats& o);
};

struct EvalResult {
  double lambda = 0.0;  ///< SLA cost of delay-sensitive traffic
  double phi = 0.0;     ///< Fortz congestion cost of throughput-sensitive traffic
  int sla_violations = 0;
  std::size_t disconnected_delay_pairs = 0;
  std::size_t disconnected_tput_pairs = 0;

  // Populated only with EvalDetail::kFull:
  std::vector<double> arc_total_load;   ///< per arc, Mbps
  std::vector<double> arc_utilization;  ///< per arc, load / capacity
  /// xi(s,t) at [s*n+t] for pairs with delay demand; -1 elsewhere; kInfDist
  /// when disconnected.
  std::vector<double> sd_delay_ms;
  /// Per arc: 1 if the arc carries delay-sensitive traffic.
  std::vector<std::uint8_t> carries_delay_traffic;

  CostPair cost() const { return {lambda, phi}; }
};

/// One unit of batched evaluation work: a weight setting under a failure
/// scenario. `weights` must outlive the batch call.
struct EvalJob {
  const WeightSetting* weights = nullptr;
  FailureScenario scenario = FailureScenario::none();
};

/// Aggregate over a scenario set (the Kfail sums of Eqs. (4)/(7)).
struct SweepResult {
  double lambda = 0.0;
  double phi = 0.0;
  /// Weighted sum of per-scenario SLA violation counts — the raw material of
  /// the expected-downtime objective (accumulated in the same ordered loop as
  /// lambda/phi, so it shares their determinism contract).
  double violations = 0.0;
  bool aborted = false;  ///< true if the early-abort bound was exceeded
  std::size_t scenarios_evaluated = 0;

  CostPair cost() const { return {lambda, phi}; }
};

/// Options of Evaluator::sweep. Spans and pointers are borrowed — they must
/// outlive the call, not the options object.
struct SweepOptions {
  /// Early-abort bound: the sweep stops as soon as the partial sums are
  /// lexicographically worse (sound because per-scenario terms are
  /// non-negative); SweepResult::aborted reports that outcome. This prunes
  /// most rejected Phase 2 candidates after a handful of evaluations.
  const CostPair* abort_bound = nullptr;
  /// Optional per-scenario weights (same length as the scenario span,
  /// non-negative): each scenario's contribution is multiplied by its weight,
  /// turning the sums into expectations over a probabilistic failure model.
  /// Early abort stays sound since weighted terms remain non-negative.
  std::span<const double> scenario_weights = {};
  /// When given (and > 1 worker), scenarios are evaluated in parallel rounds
  /// of one scenario per worker while sums accumulate in scenario order with
  /// the abort bound checked after every term — so the returned SweepResult
  /// (sums, aborted flag AND scenarios_evaluated) is bit-identical to the
  /// sequential sweep for any worker count; parallelism only costs up to one
  /// round of wasted evaluations past an abort point.
  ThreadPool* pool = nullptr;
  /// Reinterprets `abort_bound` for the expected-downtime objective: the
  /// lexicographic abort comparison runs on (violations, phi) instead of
  /// (lambda, phi) — abort_bound->lambda bounds the weighted violation sum.
  /// The lambda/phi/violations sums themselves are unchanged.
  bool abort_on_violations = false;
};

/// Evaluates DTR weight settings on a network instance: runs both class
/// routings (ECMP over each logical topology), derives total loads, link
/// delays, SLA costs and congestion costs — under normal conditions or any
/// failure scenario. The workhorse behind both optimization phases and all
/// experiment harnesses.
///
/// The evaluator never mutates the graph: failures are arc liveness masks.
class Evaluator {
 public:
  Evaluator(const Graph& g, const ClassedTraffic& traffic, EvalParams params,
            EvaluatorConfig config = {});
  ~Evaluator();

  const Graph& graph() const { return graph_; }
  const ClassedTraffic& traffic() const { return traffic_; }
  const EvalParams& params() const { return params_; }
  const EvaluatorConfig& config() const { return config_; }

  EvalResult evaluate(const WeightSetting& w,
                      const FailureScenario& scenario = FailureScenario::none(),
                      EvalDetail detail = EvalDetail::kCostsOnly) const;

  /// No-failure cost of `w` with Phi checked first: nullopt exactly when
  /// evaluate(w).phi > phi_bound, otherwise evaluate(w).cost(), bit for bit.
  /// A rejection never runs the delay DP (the Lambda side of a cached base is
  /// lazy), so a caller bounding Phi — Phase 2's constraint (6) — skips the
  /// DP for every candidate that fails the bound.
  std::optional<CostPair> evaluate_phi_first(const WeightSetting& w, double phi_bound) const;

  /// Sums weighted Lambda/Phi/violations over `scenarios` under the options'
  /// early-abort / weighting / parallelism knobs (see SweepOptions). The
  /// workhorse behind every catalog-aggregation objective.
  SweepResult sweep(const WeightSetting& w, std::span<const FailureScenario> scenarios,
                    const SweepOptions& options = {}) const;

  /// Batch failure-scenario evaluation: one EvalResult per scenario, all for
  /// the same weight setting. Arc costs are expanded once and shared across
  /// scenarios; each pool worker reuses its own SPF/routing scratch buffers.
  /// Results are bit-identical for any worker count (each scenario is an
  /// independent pure evaluation written to its own output slot).
  std::vector<EvalResult> evaluate_failures(const WeightSetting& w,
                                            std::span<const FailureScenario> scenarios,
                                            ThreadPool* pool = nullptr,
                                            EvalDetail detail = EvalDetail::kCostsOnly) const;

  /// Batch cost evaluation over heterogeneous (weights, scenario) jobs — the
  /// Phase 1b sampling workload. Same determinism contract as
  /// `evaluate_failures`.
  std::vector<CostPair> evaluate_costs(std::span<const EvalJob> jobs,
                                       ThreadPool* pool = nullptr) const;

  /// Uncapacitated min-hop reference cost: sum over demands of
  /// volume * hopcount. Figures report Phi / phi_uncap() (Fortz's Phi*
  /// normalization) so series are O(1).
  double phi_uncap() const { return phi_uncap_; }

  /// Number of SD pairs with positive delay-class demand.
  std::size_t delay_demand_pairs() const { return delay_pairs_; }

  /// Snapshot of the base-routing cache counters (all zero when
  /// config().incremental is off). Thread-safe.
  EvaluatorCacheStats base_cache_stats() const;

  /// Cached base records currently held (<= kBaseCacheCapacity).
  std::size_t base_cache_size() const;

  /// Drops every cached base record and the pin (counters survive). The cache keys on
  /// weight-vector VALUES, so ordinary weight mutation can never serve a
  /// stale record; this exists for tests and for callers that want to
  /// release the memory between workloads. Thread-safe, and `const` like the
  /// evaluation entry points: the cache is pure acceleration state, never
  /// observable in results.
  void invalidate_base_cache() const;

  /// Names `w` as the search incumbent: makes sure its base is cached
  /// (building it, donor-patched or from scratch, without replay records, if
  /// it is missing — one counted miss) and pins that entry, releasing the
  /// previous pin. One entry is pinned at a time; LRU eviction never picks
  /// it. A pin is cache policy, not an evaluation: no result and no
  /// deterministic counter changes. No-op when config().incremental is off.
  /// Thread-safe.
  void pin_incumbent(const WeightSetting& w) const;

  /// Publishes the base-routing cache LIFETIME totals into the process plane
  /// of config().telemetry (`evaluator.base_cache.*`). Hit/miss counts depend
  /// on the execution shape (LRU survivor sets, speculative lookups), so they
  /// never enter the deterministic plane. The evaluator's owner calls this
  /// exactly once, when done with it — repeated flushes would double-count.
  /// No-op when config().telemetry is null or incremental is off.
  void flush_cache_stats_to_telemetry() const;

 private:
  /// Reusable per-evaluation buffers. One instance per worker thread; reusing
  /// it across scenario evaluations keeps the hot path allocation-free.
  struct Scratch {
    std::vector<std::uint8_t> mask;
    std::vector<double> cost_delay;
    std::vector<double> cost_tput;
    std::vector<double> total_load;
    std::vector<double> arc_delay;
    std::vector<double> sd_delay;
    std::vector<ArcId> removed;
    ClassRouting delay_routing;
    ClassRouting tput_routing;
    FailureScratch failure;
  };

  /// Cached no-failure base of the incremental path: both class routings,
  /// the no-failure loads and Phi, plus two lazy products — the replay
  /// records and the Lambda side (end-to-end delays, SLA cost). Built once
  /// per weight vector on one thread, then read concurrently by every worker.
  struct IncrementalBase;

  /// Weights-keyed LRU cache of shared_ptr'd IncrementalBase records
  /// (mutex-guarded; defined in evaluator.cpp).
  class BaseCache;

  /// Core evaluation with pre-expanded arc costs and caller-owned scratch.
  /// A non-null `base` routes eligible scenarios through the incremental
  /// path (bit-identical to the full one). A non-null `stats` receives this
  /// one evaluation's deterministic counters (the caller owns aggregation
  /// order).
  EvalResult evaluate_impl(std::span<const double> cost_delay,
                           std::span<const double> cost_tput,
                           const FailureScenario& scenario, EvalDetail detail,
                           Scratch& scratch, const IncrementalBase* base = nullptr,
                           EvalStats* stats = nullptr) const;

  /// Builds the no-failure base for these arc costs from scratch: both
  /// routings with full Dijkstras, then the no-failure products. The replay
  /// records are left for ensure_patch_records.
  void build_base(std::span<const double> cost_delay, std::span<const double> cost_tput,
                  IncrementalBase& base) const;

  /// Builds a base by delta-patching a donor base whose weights differ on at
  /// most kWeightDeltaMaxLinks links: both routings run
  /// compute_from_weight_delta from the donor's labels + replay records, then
  /// the no-failure products are derived as in build_base — bit-identical to
  /// a scratch build. Records of the NEW base stay lazy.
  void build_base_from_donor(const WeightSetting& w, const WeightSetting& donor_key,
                             const IncrementalBase& donor,
                             std::span<const double> cost_delay,
                             std::span<const double> cost_tput,
                             IncrementalBase& built) const;

  /// Eager no-failure products of a base whose routings are done: total
  /// loads and the Phi side of base.none_result.
  void finish_base(IncrementalBase& base) const;

  /// Materializes the Lambda side of a base's no-failure evaluation: arc
  /// delays, the end-to-end delay DP and the SLA aggregation (over
  /// base.sd_delay, mutating it in place like every evaluation does).
  /// Thread-safe (call_once); a no-op after the first call.
  void ensure_lambda(std::span<const double> cost_delay, const IncrementalBase& base) const;

  /// Materializes the replay records of a lazily built base by re-running
  /// the load sweeps over its existing labels with recording enabled.
  /// Thread-safe (call_once); a no-op after the first call.
  void ensure_patch_records(std::span<const double> cost_delay,
                            std::span<const double> cost_tput,
                            const IncrementalBase& base) const;

  /// Returns the cached base record for `w`, or nullptr when incremental is
  /// off. On a miss, builds (and caches) the base only when `build` is set —
  /// otherwise returns nullptr. With `patch`, the returned base also carries
  /// its replay records (ensure_patch_records has run).
  std::shared_ptr<const IncrementalBase> acquire_base(const WeightSetting& w,
                                                      std::span<const double> cost_delay,
                                                      std::span<const double> cost_tput,
                                                      bool build, bool patch) const;

  /// No-failure evaluation served from a cached base: returns the stored
  /// aggregate, running ensure_lambda first (and rebuilds the kFull detail
  /// vectors from the stored no-failure products) — bit-identical to
  /// recomputing, by purity.
  EvalResult serve_none_from_base(std::span<const double> cost_delay,
                                  const IncrementalBase& base, EvalDetail detail) const;

  /// The calling thread's persistent scratch. Pool workers are long-lived,
  /// so batched evaluations reuse buffers across calls, not just within one.
  static Scratch& worker_scratch();

  const Graph& graph_;
  ClassedTraffic traffic_;
  EvalParams params_;
  EvaluatorConfig config_;
  double phi_uncap_ = 0.0;
  std::size_t delay_pairs_ = 0;
  /// Non-null iff config_.incremental. The pointer is set once in the
  /// constructor; the cache itself is internally synchronized, so const
  /// evaluation entry points may touch it from any thread.
  std::unique_ptr<BaseCache> cache_;
};

}  // namespace dtr
