#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/spf.h"
#include "traffic/traffic_matrix.h"

namespace dtr {

/// How an SD pair's end-to-end delay is summarized when ECMP spreads its
/// traffic over several shortest paths.
enum class SlaDelayMode : std::uint8_t {
  /// Expected delay under even splitting (probe averaging — paper's SLA
  /// measurement model). Default.
  kExpected,
  /// Maximum delay over all used paths (conservative).
  kWorstPath,
};

/// Per-destination slices of a no-failure base routing, recorded while
/// ClassRouting::compute runs so the incremental failure path can replay an
/// unaffected destination's contribution verbatim: same values added to the
/// same accumulators in the same destination order means the patched arc
/// loads and disconnection totals are bitwise identical to a full recompute.
struct RoutingBaseRecord {
  /// CSR over destinations: destination t's load contributions are
  /// [contrib_offset[t], contrib_offset[t+1]) in contrib_arc/contrib_val.
  /// Each arc appears at most once per destination (its source node is swept
  /// exactly once), so replay order within a destination is immaterial.
  std::vector<std::size_t> contrib_offset;
  std::vector<ArcId> contrib_arc;
  std::vector<double> contrib_val;
  /// Per-destination disconnected-demand subtotals.
  std::vector<std::uint32_t> disconnected;
  std::vector<double> disconnected_volume;

  void reset(std::size_t num_nodes);
};

/// Bucket upper bounds for the delta-SPF affected-region-size histogram
/// (telemetry `spf.affected_region`): powers of two up to 1024 nodes plus an
/// implicit overflow bucket. Shared by PatchStats and the telemetry registry
/// so per-worker bucket arrays merge 1:1.
inline constexpr std::array<std::uint64_t, 11> kAffectedBucketBounds = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

/// Deterministic per-call counters of the incremental failure path,
/// accumulated by compute_from_base into the worker's FailureScratch (the
/// evaluator adds the delay-DP column count of each patched scenario). Every
/// field is a pure function of graph + costs + scenario (never of the
/// execution shape), so callers may fold these into the deterministic
/// telemetry plane.
struct PatchStats {
  std::uint64_t dests_delta = 0;          ///< destinations patched by delta-SPF
  std::uint64_t dests_full_fallback = 0;  ///< delta overflow -> full Dijkstra
  std::uint64_t dests_resweep = 0;        ///< affected DAG -> load re-sweep
  std::uint64_t dests_replayed = 0;       ///< untouched DAG -> record replay
  std::uint64_t nodes_retested = 0;       ///< re-swept nodes whose tight arcs were tested
  std::uint64_t affected_nodes = 0;       ///< total delta-recomputed labels
  std::uint64_t boundary_seeds = 0;       ///< total phase-2 Dijkstra seeds
  std::uint64_t delay_cols_recomputed = 0;  ///< delay DP columns run
  /// Pre-binned affected-region sizes (kAffectedBucketBounds + overflow).
  std::array<std::uint64_t, kAffectedBucketBounds.size() + 1> affected_buckets{};

  /// Bins one delta-patched destination's affected-node count. Must use the
  /// exact bucketing rule of telemetry::Histogram::observe (first bound >= v)
  /// so merge_buckets is a faithful batch of observe calls.
  void observe_affected(std::uint64_t n);
  void merge(const PatchStats& o);
};

/// Reusable per-worker scratch for ClassRouting::compute_from_base and
/// compute_from_weight_delta (delta-SPF and order-merge buffers plus the
/// patch counters). One instance per worker thread, reused across scenario
/// evaluations to keep the incremental hot path allocation-free.
class FailureScratch {
 public:
  FailureScratch() = default;

  /// Counters accumulated since the last reset_stats(). The owner (the
  /// evaluator, which shares one scratch across the load + delay passes of a
  /// scenario) resets before a scenario and harvests after it.
  const PatchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PatchStats{}; }

 private:
  friend class ClassRouting;
  DeltaSpfScratch spf_;
  PatchStats stats_;
  std::vector<ArcCostDelta> changes_;  ///< compute_from_base's removals as changes
  std::vector<std::uint8_t> relabelled_;  ///< per-node flag, all zero between calls
  std::vector<NodeId> moved_;             ///< relabelled nodes in sweep order
};

/// Routing state of ONE traffic class under a given arc-cost vector and arc
/// liveness mask: per-destination distance labels (defining the ECMP
/// shortest-path DAGs) and the per-arc loads of this class's demands.
///
/// Load aggregation is the standard Fortz–Thorup sweep: per destination,
/// process nodes in decreasing distance order and split each node's
/// accumulated flow evenly across its tight out-arcs.
///
/// Order rule: the sweep visits nodes in decreasing distance and breaks ties
/// by decreasing node id — exactly the reverse of the settle order
/// shortest_distances_to reports. The order fixes the order in which a
/// node's inflow sums, so every load path uses this one total order. The
/// routing keeps it as state, one row per destination next to the labels:
/// compute writes its Dijkstra's settle order, the patch paths write the
/// base's row (merging in the relabelled nodes, or the settle order of a
/// full-Dijkstra fallback), and record_contributions and end_to_end_delays
/// read the rows — the latter backward, in increasing distance.
class ClassRouting {
 public:
  /// `skip_nodes`: demands sourced or sunk at any of these nodes are ignored
  /// (node-failure semantics; compound scenarios may fail several nodes at
  /// once). Pass an empty span for none. The set is tiny, so membership is a
  /// linear scan (is_skipped).
  ClassRouting(const Graph& g, std::span<const double> arc_cost,
               const TrafficMatrix& demands, ArcAliveMask alive,
               std::span<const NodeId> skip_nodes = {});

  /// Empty routing; call `compute` before any accessor. Exists so scratch
  /// holders (per-worker evaluation buffers) can reuse one instance's
  /// allocations across many scenario evaluations.
  ClassRouting() = default;

  /// (Re)computes the routing, reusing previously allocated buffers. When
  /// `record` is given it is filled with the per-destination slices the
  /// incremental failure path (compute_from_base) replays.
  void compute(const Graph& g, std::span<const double> arc_cost,
               const TrafficMatrix& demands, ArcAliveMask alive,
               std::span<const NodeId> skip_nodes = {},
               RoutingBaseRecord* record = nullptr);

  /// Re-derives the RoutingBaseRecord that compute(..., record) would have
  /// produced, from this routing's EXISTING state — the demand seeding and
  /// ECMP share arithmetic re-run over dist_ in the stored order rows, but
  /// no Dijkstra.
  /// The appended values are bitwise identical to an eagerly recorded
  /// base's (same labels, same float ops, same order; test-enforced via the
  /// incremental byte-identity suites). Used by the evaluator's lazy
  /// base-record materialization; `alive`/`skip_nodes` must match the
  /// compute() call that produced this routing.
  void record_contributions(const Graph& g, std::span<const double> arc_cost,
                            const TrafficMatrix& demands, ArcAliveMask alive,
                            std::span<const NodeId> skip_nodes,
                            RoutingBaseRecord& record) const;

  /// Incremental recompute of this routing under an arc-removal failure,
  /// patching from `base` — the same graph/costs/demands with every removed
  /// arc alive, computed WITH `record`. Produces bitwise-identical state to
  /// compute() under `alive`: per destination, distance labels are
  /// delta-updated (falling back to a full Dijkstra when the delta would
  /// touch more than `max_affected_fraction` of the nodes), and load /
  /// disconnection contributions are replayed from the record when the
  /// destination's DAG is untouched, re-swept otherwise.
  ///
  /// `alive` must be the base mask with exactly `removed_arcs` cleared.
  /// Node-failure scenarios (skip semantics) are not supported; use
  /// compute().
  void compute_from_base(const Graph& g, std::span<const double> arc_cost,
                         const TrafficMatrix& demands, const ClassRouting& base,
                         const RoutingBaseRecord& record,
                         std::span<const ArcId> removed_arcs, ArcAliveMask alive,
                         double max_affected_fraction, FailureScratch& scratch);

  /// Incremental recompute of this NO-FAILURE routing under an arc COST
  /// change, patching from `base` — the same graph/demands routed under
  /// `changes[i].old_cost` in place of arc_cost[changes[i].arc] (no failure
  /// mask on either side), with `record` its replay record. Produces
  /// bitwise-identical state to compute() under the new costs: per
  /// destination, distance labels are delta-updated (full-Dijkstra fallback
  /// past `max_affected_fraction`), and load / disconnection contributions
  /// are replayed from the record when the destination's labels AND tight-arc
  /// set are untouched (a changed arc tight under either cost vector churns
  /// the ECMP splits even when labels survive), re-swept otherwise.
  ///
  /// This is the optimizer's candidate-probing fast path: a probe that
  /// changes one link's weights differs from the incumbent by two arcs per
  /// class.
  void compute_from_weight_delta(const Graph& g, std::span<const double> arc_cost,
                                 const TrafficMatrix& demands,
                                 const ClassRouting& base,
                                 const RoutingBaseRecord& record,
                                 std::span<const ArcCostDelta> changes,
                                 double max_affected_fraction,
                                 FailureScratch& scratch);

  std::span<const double> arc_loads() const { return arc_load_; }
  double arc_load(ArcId a) const { return arc_load_[a]; }

  /// dist[t][u] = shortest cost from u to t (kInfDist if unreachable).
  const std::vector<std::vector<double>>& distances() const { return dist_; }

  bool pair_connected(NodeId s, NodeId t) const { return dist_[t][s] != kInfDist; }

  /// Demands (s,t) with positive volume whose source cannot reach t.
  std::size_t disconnected_demand_count() const { return disconnected_; }
  double disconnected_demand_volume() const { return disconnected_volume_; }

  /// Per-SD-pair end-to-end delay xi(s,t) for this class's DAGs, given
  /// per-arc delays D_a (computed from TOTAL load across classes).
  /// out[s*n + t] = delay in ms; untouched entries are set to -1 (pairs with
  /// no demand). Disconnected pairs with demand get kInfDist.
  ///
  /// Walks the ECMP DAG the load sweep recorded (its tight out-arcs per
  /// destination) backward along the order rows, so `arc_cost`, `alive`,
  /// `demands` and `skip_nodes` must be the inputs this routing was computed
  /// with. Throws std::logic_error when the routing holds no DAG for `g`
  /// (never computed, or computed for a graph of another size).
  void end_to_end_delays(const Graph& g, std::span<const double> arc_cost,
                         ArcAliveMask alive, std::span<const double> arc_delay_ms,
                         const TrafficMatrix& demands, SlaDelayMode mode,
                         std::span<const NodeId> skip_nodes,
                         std::vector<double>& out) const;

 private:
  /// The body of compute_from_base and compute_from_weight_delta: `changes`
  /// lists every arc whose cost or liveness differs from `base` (a removed
  /// arc carries its unchanged cost as old_cost), `alive_mask` is the new
  /// mask.
  void patch_from_base(const Graph& g, std::span<const double> arc_cost,
                       const TrafficMatrix& demands, const ClassRouting& base,
                       const RoutingBaseRecord& record, ArcAliveMask alive_mask,
                       std::span<const ArcCostDelta> changes,
                       double max_affected_fraction, FailureScratch& scratch);

  /// Starts an empty order-row table, reserved for n destinations' rows.
  void clear_rows(std::size_t n);
  /// Destination t's order row: every node but t with a finite label, in
  /// sweep order.
  std::span<const NodeId> sweep_row(NodeId t) const {
    return {rows_.data() + row_offset_[t], row_offset_[t + 1] - row_offset_[t]};
  }
  /// Whether this routing holds labels, DAG rows and order rows for `g`.
  bool computed_for(const Graph& g) const;

  /// Seeds the demands toward `t` (counting its disconnected demand as a
  /// per-destination subtotal) and runs the ECMP load sweep over dist_[t] in
  /// order row t, with tight_'s row t as the DAG. Appends the destination's
  /// slices to `record` when given. Shared by the full and incremental paths
  /// so their per-destination float operations are literally the same code.
  /// Returns the number of nodes whose tight out-arcs it tested.
  std::uint64_t sweep_destination(const Graph& g, std::span<const double> arc_cost,
                                  const TrafficMatrix& demands, ArcAliveMask alive_mask,
                                  std::span<const NodeId> skip_nodes, NodeId t,
                                  RoutingBaseRecord* record);

  /// The one per-destination seed + ECMP share sweep every load path runs:
  /// `arc_load` / `disconnected` / `disconnected_volume` receive the results
  /// when non-null (compute / compute_from_base via sweep_destination), and
  /// `record` receives the replay slices (eager recording and the lazy
  /// record_contributions, which passes null accumulators). One body means
  /// one set of float ops — the recorded shares cannot drift from the
  /// applied ones. The sweep visits order row t. `tight_row` must satisfy
  /// tight_'s row invariant; the sweep tests the out-arcs of each
  /// flow-carrying node whose row is empty, fills the row in, and returns how
  /// many nodes it tested.
  std::uint64_t sweep_destination_body(const Graph& g, std::span<const double> arc_cost,
                                       const TrafficMatrix& demands,
                                       ArcAliveMask alive_mask,
                                       std::span<const NodeId> skip_nodes, NodeId t,
                                       RoutingBaseRecord* record,
                                       std::vector<double>* arc_load,
                                       std::size_t* disconnected,
                                       double* disconnected_volume,
                                       std::vector<double>& node_flow,
                                       std::span<std::uint64_t> tight_row) const;

  std::vector<double> arc_load_;
  std::vector<std::vector<double>> dist_;
  /// The ECMP DAG per destination: row t (ceil(|A|/64) words) holds one bit
  /// per CSR out-arc slot. Row invariant: a node's slot range is either
  /// empty or holds exactly its alive out-arcs that are tight toward t. A
  /// node carrying flow always ends the sweep with a non-empty range; a node
  /// without flow may have either. The patch paths start from the base's
  /// rows and clear only the ranges of dirty nodes — relabelled nodes, their
  /// in-neighbours and the tails of changed arcs — so every other range is
  /// kept without a retest. Read by end_to_end_delays, which tests an empty
  /// range on demand under the same rule.
  std::vector<std::uint64_t> tight_;
  /// The order rows, CSR over destinations: row t is
  /// [row_offset_[t], row_offset_[t+1]) in rows_ (see the order rule above).
  /// Written for every destination, skipped ones included.
  std::vector<std::size_t> row_offset_;
  std::vector<NodeId> rows_;
  std::size_t disconnected_ = 0;
  double disconnected_volume_ = 0.0;
  // compute() scratch, kept to avoid reallocation across evaluations.
  std::vector<double> node_flow_;
  std::vector<NodeId> settled_;  ///< one destination's Dijkstra settle list
};

/// Tight-arc test: arc a lies on a shortest path toward t (distance labels
/// `dist`) iff it is alive and dist[src] == cost[a] + dist[dst]. Weights are
/// integers, so sums are exact in double; the epsilon only guards against
/// callers with fractional costs.
bool arc_is_tight(const Arc& arc, double cost, std::span<const double> dist);

/// Endpoint-index form of the same predicate for CSR/SoA iteration (the hot
/// loops read src/dst from the flat adjacency streams instead of the Arc
/// record). Bit-identical to the Arc& overload.
bool arc_is_tight(NodeId src, NodeId dst, double cost, std::span<const double> dist);

}  // namespace dtr
