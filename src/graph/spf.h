#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dtr {

/// Distance assigned to unreachable nodes.
inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Arc liveness mask: arc `a` participates iff mask is empty or mask[a] != 0.
using ArcAliveMask = std::span<const std::uint8_t>;

/// Fills dist[u] with the cost of the shortest u -> t path over alive arcs
/// (Dijkstra on the reverse graph). Costs must be non-negative.
///
/// This is the orientation the routing engine needs: per-destination distance
/// labels define the ECMP shortest-path DAG (arc (u,v) is "tight" iff
/// dist[u] == cost(u,v) + dist[v]).
///
/// When `settled` is given it receives every reachable node (t first) in the
/// order Dijkstra settles them: ascending (dist, node id). The heap orders
/// its entries by that pair, and positive costs put every node of one
/// distance in the heap before the first of them pops, so the order is a
/// function of the labels alone. The labels do not depend on it.
void shortest_distances_to(const Graph& g, NodeId t,
                           std::span<const double> arc_cost,
                           ArcAliveMask arc_alive,
                           std::vector<double>& dist,
                           std::vector<NodeId>* settled = nullptr);

/// Fills dist[v] with the cost of the shortest s -> v path over alive arcs.
void shortest_distances_from(const Graph& g, NodeId s,
                             std::span<const double> arc_cost,
                             ArcAliveMask arc_alive,
                             std::vector<double>& dist);

/// All-pairs matrix d[t][u] = shortest distance from u to t (no mask).
std::vector<std::vector<double>> all_pairs_distances_to(
    const Graph& g, std::span<const double> arc_cost);

/// One arc whose cost changed between the labeled state and the target state
/// of delta_spf_update_arcs. The NEW cost lives in the caller's arc_cost /
/// alive mask; only the OLD cost needs carrying.
struct ArcCostDelta {
  ArcId arc = 0;
  double old_cost = 0.0;
};

/// Reusable buffers for delta_spf_update_arcs / delta_spf_remove_arcs. The
/// incremental failure path calls the delta update once per destination per
/// scenario, so the scratch keeps every allocation alive across calls
/// (epoch-stamped state array, no O(n) clears).
class DeltaSpfScratch {
 public:
  DeltaSpfScratch() = default;

  /// Boundary-seed count of the most recent delta update: the number of
  /// seeds (boundary arcs into the unaffected region plus improved-arc
  /// candidates) that started the phase-2 Dijkstra. Deterministic — a pure
  /// function of graph + costs + changes, so it feeds the deterministic
  /// telemetry plane.
  std::uint64_t last_boundary_seeds() const { return boundary_seeds_; }

  /// Nodes the most recent successful delta update relabelled (the count it
  /// returned; each node once, in no particular order). Every other label
  /// kept its bytes. Meaningless after a -1 return.
  std::span<const NodeId> last_affected() const { return affected_; }

 private:
  friend std::ptrdiff_t delta_spf_update_arcs(const Graph& g,
                                              std::span<const double> arc_cost,
                                              ArcAliveMask alive,
                                              std::span<const ArcCostDelta> changes,
                                              std::vector<double>& dist,
                                              std::size_t max_affected,
                                              DeltaSpfScratch& scratch);
  friend std::ptrdiff_t delta_spf_remove_arcs(const Graph& g,
                                              std::span<const double> arc_cost,
                                              ArcAliveMask new_alive,
                                              std::span<const ArcId> removed_arcs,
                                              std::vector<double>& dist,
                                              std::size_t max_affected,
                                              DeltaSpfScratch& scratch);

  std::vector<std::uint64_t> stamp_;  ///< state_/label_ valid iff == epoch_
  std::vector<std::uint8_t> state_;
  std::vector<double> label_;
  std::vector<std::pair<double, NodeId>> heap_;
  std::vector<NodeId> affected_;
  std::vector<ArcCostDelta> changes_;  ///< delta_spf_remove_arcs wrapper buffer
  std::uint64_t epoch_ = 0;
  std::uint64_t boundary_seeds_ = 0;
};

/// Incremental (Ramalingam–Reps-style) update of destination distance labels
/// when a set of arcs CHANGES COST — increase, decrease, or removal (a dead
/// arc in `alive` is an increase to +infinity). Identifies the exact affected
/// region in increasing old-distance order, then runs a regional Dijkstra
/// seeded from the unaffected boundary and the improved arcs.
///
/// `dist` must be valid labels for the OLD costs (each changes[i].old_cost in
/// place of arc_cost[changes[i].arc], every changed arc alive); `arc_cost` /
/// `alive` describe the NEW state. Alive arc costs must be positive. On
/// return, `dist` equals what shortest_distances_to would produce under the
/// new state, bit for bit: untouched labels keep their old bytes, recomputed
/// ones are the same min-of-float-sums a full Dijkstra evaluates.
///
/// Returns the number of recomputed nodes, or -1 when that count would exceed
/// `max_affected` — `dist` is then left fully unchanged (all label writes are
/// deferred past the last abort point) so the caller can fall back to a full
/// recompute.
std::ptrdiff_t delta_spf_update_arcs(const Graph& g, std::span<const double> arc_cost,
                                     ArcAliveMask alive,
                                     std::span<const ArcCostDelta> changes,
                                     std::vector<double>& dist,
                                     std::size_t max_affected,
                                     DeltaSpfScratch& scratch);

/// Incremental (Ramalingam–Reps-style) update of destination distance labels
/// when a set of arcs is removed: identifies the nodes whose shortest path
/// relied on a removed arc and re-runs Dijkstra over that region only,
/// seeding from the unaffected boundary.
///
/// `dist` must be the output of shortest_distances_to under the pre-removal
/// mask (every removed arc alive); `new_alive` is the post-removal mask
/// (every removed arc dead). Alive arc costs must be positive. On return,
/// `dist` equals what shortest_distances_to would produce under `new_alive`,
/// bit for bit: distances of unaffected nodes are untouched, and recomputed
/// ones are the same min-of-float-sums a full Dijkstra evaluates.
///
/// Returns the number of recomputed nodes, or -1 when that count would
/// exceed `max_affected` — `dist` is then left fully unchanged so the caller
/// can fall back to a full recompute.
std::ptrdiff_t delta_spf_remove_arcs(const Graph& g, std::span<const double> arc_cost,
                                     ArcAliveMask new_alive,
                                     std::span<const ArcId> removed_arcs,
                                     std::vector<double>& dist,
                                     std::size_t max_affected,
                                     DeltaSpfScratch& scratch);

/// Minimum hop counts from s over alive arcs (BFS); -1 when unreachable.
void hop_distances_from(const Graph& g, NodeId s, ArcAliveMask arc_alive,
                        std::vector<int>& hops);

/// Longest shortest-path (by arc propagation delay) over all connected pairs;
/// 0 for graphs with < 2 nodes. Used to calibrate synthesized-topology delays
/// against the SLA bound (Sec. V-A1).
double propagation_diameter_ms(const Graph& g);

}  // namespace dtr
