#include "graph/spf.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace dtr {

namespace {

struct HeapEntry {
  double dist;
  NodeId node;
  // (dist, node): equal distances settle in ascending node id.
  bool operator>(const HeapEntry& o) const {
    return dist > o.dist || (dist == o.dist && node > o.node);
  }
};

inline bool arc_is_alive(ArcAliveMask mask, ArcId a) {
  return mask.empty() || mask[a] != 0;
}

enum class Direction { kForward, kReverse };

/// Dijkstra with lazy deletion. For kReverse, relaxes in-arcs so the labels
/// are "distance to t"; for kForward, out-arcs ("distance from s").
void dijkstra(const Graph& g, NodeId origin, std::span<const double> arc_cost,
              ArcAliveMask alive, Direction dir, std::vector<double>& dist,
              std::vector<NodeId>* settled = nullptr) {
  if (arc_cost.size() != g.num_arcs())
    throw std::invalid_argument("dijkstra: arc_cost size mismatch");
  if (!alive.empty() && alive.size() != g.num_arcs())
    throw std::invalid_argument("dijkstra: alive mask size mismatch");
  if (origin >= g.num_nodes()) throw std::out_of_range("dijkstra: origin node");

  // CSR adjacency: one contiguous offset/arc/endpoint stream per direction,
  // visited in the same per-node ascending-arc-id order as the legacy
  // per-node vectors, so relaxation order (and float results) are unchanged.
  const GraphCsr& csr = g.csr();
  const bool rev = dir == Direction::kReverse;
  const std::uint32_t* offset = (rev ? csr.in_offset : csr.out_offset).data();
  const ArcId* arc_of = (rev ? csr.in_arc : csr.out_arc).data();
  const NodeId* node_of = (rev ? csr.in_tail : csr.out_head).data();

  dist.assign(g.num_nodes(), kInfDist);
  dist[origin] = 0.0;
  if (settled != nullptr) settled->clear();
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  heap.push({0.0, origin});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    // Pushes happen only on strict improvement, so this is u's one live pop.
    if (settled != nullptr) settled->push_back(u);
    const std::uint32_t end = offset[u + 1];
    for (std::uint32_t k = offset[u]; k < end; ++k) {
      const ArcId a = arc_of[k];
      if (!arc_is_alive(alive, a)) continue;
      const NodeId next = node_of[k];
      const double nd = d + arc_cost[a];
      if (nd < dist[next]) {
        dist[next] = nd;
        heap.push({nd, next});
      }
    }
  }
}

}  // namespace

void shortest_distances_to(const Graph& g, NodeId t,
                           std::span<const double> arc_cost,
                           ArcAliveMask arc_alive, std::vector<double>& dist,
                           std::vector<NodeId>* settled) {
  dijkstra(g, t, arc_cost, arc_alive, Direction::kReverse, dist, settled);
}

void shortest_distances_from(const Graph& g, NodeId s,
                             std::span<const double> arc_cost,
                             ArcAliveMask arc_alive, std::vector<double>& dist) {
  dijkstra(g, s, arc_cost, arc_alive, Direction::kForward, dist);
}

std::vector<std::vector<double>> all_pairs_distances_to(
    const Graph& g, std::span<const double> arc_cost) {
  std::vector<std::vector<double>> d(g.num_nodes());
  for (NodeId t = 0; t < g.num_nodes(); ++t)
    shortest_distances_to(g, t, arc_cost, {}, d[t]);
  return d;
}

std::ptrdiff_t delta_spf_update_arcs(const Graph& g, std::span<const double> arc_cost,
                                     ArcAliveMask alive,
                                     std::span<const ArcCostDelta> changes,
                                     std::vector<double>& dist,
                                     std::size_t max_affected, DeltaSpfScratch& scratch) {
  if (arc_cost.size() != g.num_arcs())
    throw std::invalid_argument("delta_spf_update_arcs: arc_cost size mismatch");
  if (!alive.empty() && alive.size() != g.num_arcs())
    throw std::invalid_argument("delta_spf_update_arcs: alive mask size mismatch");
  if (dist.size() != g.num_nodes())
    throw std::invalid_argument("delta_spf_update_arcs: dist size mismatch");
  if (changes.empty()) return 0;
  scratch.boundary_seeds_ = 0;
  const GraphCsr& csr = g.csr();

  // Effective new cost: a dead arc is an increase to +infinity.
  const auto eff_cost = [&](ArcId a) -> double {
    return arc_is_alive(alive, a) ? arc_cost[a] : kInfDist;
  };
  // Old cost of an arc under the labeled state. The change list is tiny (a
  // handful of arcs), so a linear scan beats any index.
  const auto old_cost_of = [&](ArcId a) -> double {
    for (const ArcCostDelta& c : changes)
      if (c.arc == a) return c.old_cost;
    return arc_cost[a];
  };

  // Node states this epoch. Undecided nodes (stale stamp) are, for the
  // support checks below, indistinguishable from unaffected ones — which is
  // exactly right: a node that never becomes a candidate keeps its distance.
  // kImproving marks nodes whose label can only DECREASE (reached through a
  // cost decrease); their old label stays a valid upper bound throughout.
  enum : std::uint8_t { kUnaffected = 1, kAffected = 2, kImproving = 3, kFinalized = 4 };
  ++scratch.epoch_;
  scratch.stamp_.resize(g.num_nodes(), 0);
  scratch.state_.resize(g.num_nodes(), 0);
  scratch.label_.resize(g.num_nodes(), 0.0);
  const auto state_of = [&](NodeId u) -> std::uint8_t {
    return scratch.stamp_[u] == scratch.epoch_ ? scratch.state_[u] : 0;
  };
  const auto set_state = [&](NodeId u, std::uint8_t s) {
    scratch.stamp_[u] = scratch.epoch_;
    scratch.state_[u] = s;
  };

  auto& heap = scratch.heap_;  // min-heap of (old dist, node) candidates
  heap.clear();
  scratch.affected_.clear();
  const auto push = [&](double key, NodeId u) {
    heap.emplace_back(key, u);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  };
  const auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto top = heap.back();
    heap.pop_back();
    return top;
  };

  // Phase 1 — identify the invalidated region. An INCREASED (or removed) arc
  // mattered for its source u only if it realized u's label EXACTLY
  // (Dijkstra's output always has at least one out-arc with
  // dist[u] == cost + dist[head], in the very float arithmetic this
  // repeats). Candidates are processed in increasing old-distance order;
  // positive costs make every exact support strictly distance-decreasing, so
  // a candidate's supports are already decided when it is popped. Decreases
  // never invalidate — they are phase-2 improvement seeds.
  for (const ArcCostDelta& c : changes) {
    const NodeId src = csr.src[c.arc];
    const NodeId dst = csr.dst[c.arc];
    if (dist[src] == kInfDist || dist[dst] == kInfDist) continue;
    if (!(eff_cost(c.arc) > c.old_cost)) continue;
    if (dist[src] == c.old_cost + dist[dst]) push(dist[src], src);
  }
  while (!heap.empty()) {
    const auto [d, u] = pop();
    if (state_of(u) != 0) continue;  // already decided
    bool supported = false;
    for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
      const ArcId a = csr.out_arc[k];
      if (!arc_is_alive(alive, a)) continue;
      const NodeId v = csr.out_head[k];
      if (dist[v] == kInfDist || state_of(v) == kAffected) continue;
      // <= instead of ==: a decreased out-arc can hold the label up with room
      // to spare (the label then only improves — phase 2's business). For
      // unchanged arcs old-label optimality makes the sum >= dist[u], so this
      // is the exact-support equality of the removal-only update.
      if (arc_cost[a] + dist[v] <= dist[u]) {
        supported = true;
        break;
      }
    }
    if (supported) {
      set_state(u, kUnaffected);
      continue;
    }
    set_state(u, kAffected);
    scratch.affected_.push_back(u);
    if (scratch.affected_.size() > max_affected) return -1;  // dist untouched so far
    for (std::uint32_t k = csr.in_offset[u]; k < csr.in_offset[u + 1]; ++k) {
      const ArcId b = csr.in_arc[k];
      if (!arc_is_alive(alive, b)) continue;
      const NodeId w = csr.in_tail[k];
      if (dist[w] == kInfDist || state_of(w) != 0) continue;
      // Tightness under the OLD cost: w's label was formed before the change.
      if (dist[w] == old_cost_of(b) + dist[u]) push(dist[w], w);
    }
  }

  // Phase 2 — Dijkstra restricted to the affected region, seeded from the
  // unaffected boundary (whose labels are final upper bounds) and from the
  // decreased arcs. Sums are formed tail-first exactly like the full
  // Dijkstra, so recomputed labels are the same min over the same float path
  // sums. Label writes into `dist` are deferred to the write-back loop below
  // so an over-cap abort (improvement seeds also count) leaves `dist`
  // untouched.
  heap.clear();
  const std::size_t invalidated = scratch.affected_.size();
  for (std::size_t i = 0; i < invalidated; ++i) {
    const NodeId u = scratch.affected_[i];
    double best = kInfDist;
    for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
      const ArcId a = csr.out_arc[k];
      if (!arc_is_alive(alive, a)) continue;
      const NodeId v = csr.out_head[k];
      if (dist[v] == kInfDist || state_of(v) == kAffected) continue;
      const double cand = dist[v] + arc_cost[a];
      if (cand < best) best = cand;
    }
    scratch.label_[u] = best;
    if (best != kInfDist) {
      push(best, u);
      ++scratch.boundary_seeds_;
    }
  }
  for (const ArcCostDelta& c : changes) {
    if (!arc_is_alive(alive, c.arc)) continue;
    if (!(arc_cost[c.arc] < c.old_cost)) continue;  // only decreases improve
    const NodeId u = csr.src[c.arc];
    const NodeId v = csr.dst[c.arc];
    if (dist[v] == kInfDist || state_of(v) == kAffected) continue;
    const std::uint8_t su = state_of(u);
    if (su == kAffected) continue;  // its boundary seed already saw this arc
    const double cand = dist[v] + arc_cost[c.arc];
    if (su == kImproving) {
      if (cand < scratch.label_[u]) {
        scratch.label_[u] = cand;
        push(cand, u);
        ++scratch.boundary_seeds_;
      }
    } else if (cand < dist[u]) {
      set_state(u, kImproving);
      scratch.label_[u] = cand;
      scratch.affected_.push_back(u);
      if (scratch.affected_.size() > max_affected) return -1;  // dist untouched
      push(cand, u);
      ++scratch.boundary_seeds_;
    }
  }
  while (!heap.empty()) {
    const auto [d, u] = pop();
    if (state_of(u) == kFinalized || d > scratch.label_[u]) continue;  // stale entry
    set_state(u, kFinalized);
    // label_[u] == d here (the stale check rejects anything else), so the
    // deferred write-back below writes exactly this value.
    for (std::uint32_t k = csr.in_offset[u]; k < csr.in_offset[u + 1]; ++k) {
      const ArcId b = csr.in_arc[k];
      if (!arc_is_alive(alive, b)) continue;
      const NodeId w = csr.in_tail[k];
      const std::uint8_t sw = state_of(w);
      const double cand = d + arc_cost[b];
      if (sw == kAffected || sw == kImproving) {  // pending region node
        if (cand < scratch.label_[w]) {
          scratch.label_[w] = cand;
          push(cand, w);
        }
      } else if (sw != kFinalized && cand < dist[w]) {
        // A finalized improvement undercut a label outside the region: the
        // improvement front grows through u's predecessors.
        set_state(w, kImproving);
        scratch.label_[w] = cand;
        scratch.affected_.push_back(w);
        if (scratch.affected_.size() > max_affected) return -1;  // dist untouched
        push(cand, w);
      }
    }
  }
  for (NodeId u : scratch.affected_) {
    const std::uint8_t st = state_of(u);
    if (st == kFinalized) {
      dist[u] = scratch.label_[u];
    } else if (st == kAffected) {
      dist[u] = kInfDist;  // cut off entirely (improving nodes always finalize)
    }
  }
  return static_cast<std::ptrdiff_t>(scratch.affected_.size());
}

std::ptrdiff_t delta_spf_remove_arcs(const Graph& g, std::span<const double> arc_cost,
                                     ArcAliveMask new_alive,
                                     std::span<const ArcId> removed_arcs,
                                     std::vector<double>& dist,
                                     std::size_t max_affected, DeltaSpfScratch& scratch) {
  // Removal is a cost increase to +infinity (the arc is dead in new_alive).
  // With no decreases in the change set the general update degenerates to
  // the historical removal algorithm: no improvement seeds, the <= support
  // check collapses to the exact equality, and the phase-2 region/labels are
  // the same mins over the same float sums — bit-identical output.
  auto& changes = scratch.changes_;
  changes.clear();
  changes.reserve(removed_arcs.size());
  for (ArcId a : removed_arcs) changes.push_back({a, arc_cost[a]});
  return delta_spf_update_arcs(g, arc_cost, new_alive, changes, dist, max_affected,
                               scratch);
}

void hop_distances_from(const Graph& g, NodeId s, ArcAliveMask arc_alive,
                        std::vector<int>& hops) {
  if (s >= g.num_nodes()) throw std::out_of_range("hop_distances_from: source");
  const GraphCsr& csr = g.csr();
  hops.assign(g.num_nodes(), -1);
  hops[s] = 0;
  std::queue<NodeId> q;
  q.push(s);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (std::uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
      const ArcId a = csr.out_arc[k];
      if (!arc_is_alive(arc_alive, a)) continue;
      const NodeId v = csr.out_head[k];
      if (hops[v] == -1) {
        hops[v] = hops[u] + 1;
        q.push(v);
      }
    }
  }
}

double propagation_diameter_ms(const Graph& g) {
  if (g.num_nodes() < 2) return 0.0;
  // SoA mirror: the delay vector is already laid out by ArcId.
  std::vector<double> costs(g.csr().prop_delay_ms.begin(), g.csr().prop_delay_ms.end());
  double diameter = 0.0;
  std::vector<double> dist;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    shortest_distances_from(g, s, costs, {}, dist);
    for (double d : dist)
      if (d != kInfDist) diameter = std::max(diameter, d);
  }
  return diameter;
}

}  // namespace dtr
