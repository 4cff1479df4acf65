#include "routing/route_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "routing/failures.h"

namespace dtr {

namespace {
constexpr double kTightEps = 1e-7;

inline bool alive(ArcAliveMask mask, ArcId a) { return mask.empty() || mask[a] != 0; }

/// Words of one destination's tight-arc bitmask: one bit per CSR out-arc slot.
inline std::size_t tight_words(std::size_t num_arcs) { return (num_arcs + 63) / 64; }

inline void set_bit(std::uint64_t* row, std::uint32_t k) {
  row[k >> 6] |= std::uint64_t{1} << (k & 63);
}

/// Calls fn(word index, mask) for each word that bits [begin, end) touch,
/// with the mask selecting the range's bits in that word.
template <class Fn>
inline void for_each_word(std::uint32_t begin, std::uint32_t end, Fn fn) {
  while (begin < end) {
    const std::uint32_t stop = std::min(end, (begin | 63) + 1);
    const std::uint32_t width = stop - begin;
    const std::uint64_t ones = width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
    fn(begin >> 6, ones << (begin & 63));
    begin = stop;
  }
}

/// Clears bits [begin, end) of `row`: one node's out-arc slot range.
inline void clear_bits(std::uint64_t* row, std::uint32_t begin, std::uint32_t end) {
  for_each_word(begin, end, [&](std::uint32_t w, std::uint64_t mask) { row[w] &= ~mask; });
}

/// Number of set bits of `row` in [begin, end).
inline int count_bits(const std::uint64_t* row, std::uint32_t begin, std::uint32_t end) {
  int count = 0;
  for_each_word(begin, end,
                [&](std::uint32_t w, std::uint64_t mask) { count += std::popcount(row[w] & mask); });
  return count;
}

/// The sweep's visit order: decreasing distance, ties broken by decreasing
/// node id — the reverse of Dijkstra's (dist, id) settle order.
struct SweepBefore {
  const std::vector<double>& dist;
  bool operator()(NodeId a, NodeId b) const {
    return dist[a] > dist[b] || (dist[a] == dist[b] && a > b);
  }
};

/// Appends destination t's sweep order to `rows` from its Dijkstra settle
/// list (t first): reversed, without t.
inline void append_settled_row(std::vector<NodeId>& rows, std::span<const NodeId> settled) {
  rows.insert(rows.end(), settled.rbegin(), settled.rend() - 1);
}

/// Appends destination t's sweep order after a delta update to `out`:
/// `base_order` minus every relabelled node, merged with the relabelled
/// nodes that still reach t, sorted under their new labels — O(n + k log k)
/// instead of a sort of all n. `flag` (one byte per node) is all zero on
/// entry and on return; `moved` is scratch.
void merge_relabelled(std::span<const NodeId> base_order, std::span<const NodeId> relabelled,
                      const std::vector<double>& dist, NodeId t,
                      std::vector<std::uint8_t>& flag, std::vector<NodeId>& moved,
                      std::vector<NodeId>& out) {
  moved.clear();
  for (NodeId u : relabelled) {
    flag[u] = 1;
    if (u != t && dist[u] != kInfDist) moved.push_back(u);
  }
  const SweepBefore before{dist};
  std::sort(moved.begin(), moved.end(), before);
  std::size_t j = 0;
  for (NodeId u : base_order) {
    if (flag[u]) continue;
    while (j < moved.size() && before(moved[j], u)) out.push_back(moved[j++]);
    out.push_back(u);
  }
  out.insert(out.end(), moved.begin() + static_cast<std::ptrdiff_t>(j), moved.end());
  for (NodeId u : relabelled) flag[u] = 0;
}

/// First set bit of `row` in [k, end), or `end` when there is none.
inline std::uint32_t next_bit(const std::uint64_t* row, std::uint32_t k, std::uint32_t end) {
  while (k < end) {
    const std::uint64_t word = row[k >> 6] >> (k & 63);
    if (word != 0) return std::min(end, k + static_cast<std::uint32_t>(std::countr_zero(word)));
    k = (k | 63) + 1;
  }
  return end;
}
}  // namespace

void PatchStats::observe_affected(std::uint64_t n) {
  const auto it =
      std::lower_bound(kAffectedBucketBounds.begin(), kAffectedBucketBounds.end(), n);
  ++affected_buckets[static_cast<std::size_t>(it - kAffectedBucketBounds.begin())];
}

void PatchStats::merge(const PatchStats& o) {
  dests_delta += o.dests_delta;
  dests_full_fallback += o.dests_full_fallback;
  dests_resweep += o.dests_resweep;
  dests_replayed += o.dests_replayed;
  nodes_retested += o.nodes_retested;
  affected_nodes += o.affected_nodes;
  boundary_seeds += o.boundary_seeds;
  delay_cols_recomputed += o.delay_cols_recomputed;
  for (std::size_t i = 0; i < affected_buckets.size(); ++i)
    affected_buckets[i] += o.affected_buckets[i];
}

bool arc_is_tight(NodeId src, NodeId dst, double cost, std::span<const double> dist) {
  const double du = dist[src];
  const double dv = dist[dst];
  if (du == kInfDist || dv == kInfDist) return false;
  return std::abs(du - (cost + dv)) <= kTightEps * std::max(1.0, std::abs(du));
}

bool arc_is_tight(const Arc& arc, double cost, std::span<const double> dist) {
  return arc_is_tight(arc.src, arc.dst, cost, dist);
}

void RoutingBaseRecord::reset(std::size_t num_nodes) {
  contrib_offset.clear();
  contrib_offset.reserve(num_nodes + 1);
  contrib_offset.push_back(0);
  contrib_arc.clear();
  contrib_val.clear();
  disconnected.clear();
  disconnected.reserve(num_nodes);
  disconnected_volume.clear();
  disconnected_volume.reserve(num_nodes);
}

ClassRouting::ClassRouting(const Graph& g, std::span<const double> arc_cost,
                           const TrafficMatrix& demands, ArcAliveMask alive_mask,
                           std::span<const NodeId> skip_nodes) {
  compute(g, arc_cost, demands, alive_mask, skip_nodes);
}

void ClassRouting::compute(const Graph& g, std::span<const double> arc_cost,
                           const TrafficMatrix& demands, ArcAliveMask alive_mask,
                           std::span<const NodeId> skip_nodes,
                           RoutingBaseRecord* record) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");

  const std::size_t n = g.num_nodes();
  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  tight_.assign(n * tight_words(g.num_arcs()), 0);
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  clear_rows(n);
  if (record != nullptr) record->reset(n);

  for (NodeId t = 0; t < n; ++t) {
    shortest_distances_to(g, t, arc_cost, alive_mask, dist_[t], &settled_);
    append_settled_row(rows_, settled_);
    row_offset_.push_back(rows_.size());
    if (!is_skipped(skip_nodes, t)) {
      sweep_destination(g, arc_cost, demands, alive_mask, skip_nodes, t, record);
    } else if (record != nullptr) {
      record->disconnected.push_back(0);
      record->disconnected_volume.push_back(0.0);
    }
    if (record != nullptr) record->contrib_offset.push_back(record->contrib_arc.size());
  }
}

void ClassRouting::clear_rows(std::size_t n) {
  row_offset_.assign(1, 0);
  rows_.clear();
  rows_.reserve(n * (n - 1));  // every row holds at most the n - 1 nodes but t
}

bool ClassRouting::computed_for(const Graph& g) const {
  const std::size_t n = g.num_nodes();
  return dist_.size() == n && tight_.size() == n * tight_words(g.num_arcs()) &&
         row_offset_.size() == n + 1;
}

std::uint64_t ClassRouting::sweep_destination(const Graph& g, std::span<const double> arc_cost,
                                              const TrafficMatrix& demands,
                                              ArcAliveMask alive_mask,
                                              std::span<const NodeId> skip_nodes, NodeId t,
                                              RoutingBaseRecord* record) {
  const std::size_t words = tight_words(g.num_arcs());
  const std::span<std::uint64_t> row(tight_.data() + t * words, words);
  return sweep_destination_body(g, arc_cost, demands, alive_mask, skip_nodes, t, record,
                                &arc_load_, &disconnected_, &disconnected_volume_,
                                node_flow_, row);
}

std::uint64_t ClassRouting::sweep_destination_body(
    const Graph& g, std::span<const double> arc_cost, const TrafficMatrix& demands,
    ArcAliveMask alive_mask, std::span<const NodeId> skip_nodes, NodeId t,
    RoutingBaseRecord* record,
    std::vector<double>* arc_load, std::size_t* disconnected, double* disconnected_volume,
    std::vector<double>& node_flow, std::span<std::uint64_t> tight_row) const {
  const std::size_t n = g.num_nodes();
  const auto& dist = dist_[t];
  node_flow.assign(n, 0.0);

  // Seed node flows with the demands toward t. Disconnection is accumulated
  // as a per-destination subtotal so the incremental path's replay adds the
  // exact same float terms in the exact same grouping.
  bool any_flow = false;
  std::uint32_t dest_disconnected = 0;
  double dest_volume = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    if (s == t || is_skipped(skip_nodes, s)) continue;
    const double d = demands.at(s, t);
    if (d <= 0.0) continue;
    if (dist[s] == kInfDist) {
      ++dest_disconnected;
      dest_volume += d;
      continue;
    }
    node_flow[s] = d;
    any_flow = true;
  }
  if (disconnected != nullptr) *disconnected += dest_disconnected;
  if (disconnected_volume != nullptr) *disconnected_volume += dest_volume;
  if (record != nullptr) {
    record->disconnected.push_back(dest_disconnected);
    record->disconnected_volume.push_back(dest_volume);
  }
  if (!any_flow) return 0;

  // Visit the reachable nodes in sweep order; each node's flow splits evenly
  // over its tight out-arcs. CSR sweep: u's out-arc span is streamed in
  // ascending slot order (same float accumulation order, bit-identical
  // loads). A node whose row range is empty gets its tight slots tested and
  // marked first; a non-empty range is exact by the row invariant.
  const GraphCsr& csr = g.csr();
  std::uint64_t* const row = tight_row.data();
  std::uint64_t retested = 0;
  for (NodeId u : sweep_row(t)) {
    const double flow = node_flow[u];
    if (flow <= 0.0) continue;
    const std::uint32_t begin = csr.out_offset[u];
    const std::uint32_t end = csr.out_offset[u + 1];
    int tight_count = count_bits(row, begin, end);
    if (tight_count == 0) {
      ++retested;
      for (std::uint32_t k = begin; k < end; ++k) {
        const ArcId a = csr.out_arc[k];
        if (alive(alive_mask, a) && arc_is_tight(u, csr.out_head[k], arc_cost[a], dist)) {
          set_bit(row, k);
          ++tight_count;
        }
      }
    }
    if (tight_count == 0) {
      // Cannot happen for finite-dist nodes (a tight arc realizes dist),
      // but guard against inconsistent masks.
      throw std::logic_error("ClassRouting: node with flow has no tight out-arc");
    }
    const double share = flow / tight_count;
    for (std::uint32_t k = next_bit(row, begin, end); k < end; k = next_bit(row, k + 1, end)) {
      const ArcId a = csr.out_arc[k];
      const NodeId v = csr.out_head[k];
      if (arc_load != nullptr) (*arc_load)[a] += share;
      node_flow[v] += share;
      if (record != nullptr) {
        record->contrib_arc.push_back(a);
        record->contrib_val.push_back(share);
      }
    }
    node_flow[u] = 0.0;
  }
  return retested;
}

void ClassRouting::record_contributions(const Graph& g, std::span<const double> arc_cost,
                                        const TrafficMatrix& demands,
                                        ArcAliveMask alive_mask,
                                        std::span<const NodeId> skip_nodes,
                                        RoutingBaseRecord& record) const {
  if (!computed_for(g))
    throw std::logic_error("record_contributions: routing not computed for this graph");
  const std::size_t n = g.num_nodes();
  const std::size_t words = tight_words(g.num_arcs());
  record.reset(n);

  // The same sweep_destination_body every load path runs — here with null
  // load/disconnection accumulators (this routing already holds the correct
  // totals), so only the record is written. The sweep walks this routing's
  // own order rows, and a copy of its own DAG row (valid by the row
  // invariant) spares it most tight tests.
  std::vector<double> node_flow;
  std::vector<std::uint64_t> row(words);
  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip_nodes, t)) {
      record.disconnected.push_back(0);
      record.disconnected_volume.push_back(0.0);
    } else {
      std::copy_n(tight_.begin() + static_cast<std::ptrdiff_t>(t * words), words, row.begin());
      sweep_destination_body(g, arc_cost, demands, alive_mask, skip_nodes, t, &record, nullptr,
                             nullptr, nullptr, node_flow, row);
    }
    record.contrib_offset.push_back(record.contrib_arc.size());
  }
}

void ClassRouting::compute_from_base(const Graph& g, std::span<const double> arc_cost,
                                     const TrafficMatrix& demands,
                                     const ClassRouting& base,
                                     const RoutingBaseRecord& record,
                                     std::span<const ArcId> removed_arcs,
                                     ArcAliveMask alive_mask,
                                     double max_affected_fraction,
                                     FailureScratch& scratch) {
  // A removal is a change to +infinity whose old cost is the arc's cost.
  scratch.changes_.clear();
  for (ArcId a : removed_arcs) scratch.changes_.push_back({a, arc_cost[a]});
  patch_from_base(g, arc_cost, demands, base, record, alive_mask, scratch.changes_,
                  max_affected_fraction, scratch);
}

void ClassRouting::compute_from_weight_delta(const Graph& g,
                                             std::span<const double> arc_cost,
                                             const TrafficMatrix& demands,
                                             const ClassRouting& base,
                                             const RoutingBaseRecord& record,
                                             std::span<const ArcCostDelta> changes,
                                             double max_affected_fraction,
                                             FailureScratch& scratch) {
  patch_from_base(g, arc_cost, demands, base, record, {}, changes, max_affected_fraction,
                  scratch);
}

void ClassRouting::patch_from_base(const Graph& g, std::span<const double> arc_cost,
                                   const TrafficMatrix& demands, const ClassRouting& base,
                                   const RoutingBaseRecord& record, ArcAliveMask alive_mask,
                                   std::span<const ArcCostDelta> changes,
                                   double max_affected_fraction, FailureScratch& scratch) {
  if (demands.num_nodes() != g.num_nodes())
    throw std::invalid_argument("ClassRouting: traffic matrix / graph size mismatch");
  const std::size_t n = g.num_nodes();
  const std::size_t words = tight_words(g.num_arcs());
  if (!base.computed_for(g) || record.contrib_offset.size() != n + 1)
    throw std::invalid_argument("ClassRouting: base/record don't match this graph");

  arc_load_.assign(g.num_arcs(), 0.0);
  dist_.resize(n);
  // Every destination starts from the base's DAG: replayed destinations keep
  // it whole, re-swept ones clear the ranges of their dirty nodes.
  tight_ = base.tight_;
  disconnected_ = 0;
  disconnected_volume_ = 0.0;
  clear_rows(n);
  scratch.relabelled_.resize(n, 0);

  const std::size_t cap =
      max_affected_fraction >= 1.0
          ? n
          : static_cast<std::size_t>(std::max(0.0, max_affected_fraction) *
                                     static_cast<double>(n));
  const GraphCsr& csr = g.csr();

  for (NodeId t = 0; t < n; ++t) {
    dist_[t] = base.dist_[t];
    const std::vector<double>& dist = dist_[t];
    std::uint64_t* const row = tight_.data() + t * words;
    const auto clear_node = [&](NodeId u) {
      clear_bits(row, csr.out_offset[u], csr.out_offset[u + 1]);
    };
    // A relabelled node's range is dirty, and so are its in-neighbours':
    // their arcs into it may have changed tightness.
    const auto relabel = [&](NodeId u) {
      clear_node(u);
      for (std::uint32_t k = csr.in_offset[u]; k < csr.in_offset[u + 1]; ++k)
        clear_node(csr.in_tail[k]);
    };
    const std::span<const NodeId> base_row = base.sweep_row(t);

    const std::ptrdiff_t touched = delta_spf_update_arcs(g, arc_cost, alive_mask, changes,
                                                         dist_[t], cap, scratch.spf_);
    bool affected = touched != 0;
    if (touched < 0) {
      // Delta would touch too much of this destination: full Dijkstra is
      // cheaper than the delta bookkeeping (dist_[t] is still the untouched
      // base copy here). The relabelled nodes are the labels that moved.
      shortest_distances_to(g, t, arc_cost, alive_mask, dist_[t], &settled_);
      append_settled_row(rows_, settled_);
      const std::vector<double>& old_dist = base.dist_[t];
      for (NodeId u = 0; u < n; ++u)
        if (dist[u] != old_dist[u]) relabel(u);
      ++scratch.stats_.dests_full_fallback;
    } else if (touched > 0) {
      ++scratch.stats_.dests_delta;
      scratch.stats_.affected_nodes += static_cast<std::uint64_t>(touched);
      scratch.stats_.boundary_seeds += scratch.spf_.last_boundary_seeds();
      scratch.stats_.observe_affected(static_cast<std::uint64_t>(touched));
      const std::span<const NodeId> relabelled = scratch.spf_.last_affected();
      for (NodeId u : relabelled) relabel(u);
      merge_relabelled(base_row, relabelled, dist, t, scratch.relabelled_, scratch.moved_,
                       rows_);
    } else {
      // Unchanged labels keep the base's order row.
      rows_.insert(rows_.end(), base_row.begin(), base_row.end());
    }
    row_offset_.push_back(rows_.size());
    if (!affected) {
      // Labels survived, but a changed arc that is tight (by the sweep's
      // epsilon predicate) under EITHER cost vector still churns the ECMP
      // splits at its source: tight under the old cost means the base's DAG
      // used it, tight under the new cost means ours does. A removed arc
      // carries its own cost as the old one.
      for (const ArcCostDelta& c : changes) {
        const NodeId src = csr.src[c.arc];
        const NodeId dst = csr.dst[c.arc];
        if (arc_is_tight(src, dst, c.old_cost, dist) ||
            arc_is_tight(src, dst, arc_cost[c.arc], dist)) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      // A changed arc's tail may gain or lose a tight arc even where no
      // label moved.
      for (const ArcCostDelta& c : changes) clear_node(csr.src[c.arc]);
      scratch.stats_.nodes_retested +=
          sweep_destination(g, arc_cost, demands, alive_mask, {}, t, nullptr);
      ++scratch.stats_.dests_resweep;
    } else {
      // Untouched DAG: replay the base contributions. Every accumulator
      // receives the same float terms in the same destination order as a
      // full recompute, so the patched state is bitwise identical.
      for (std::size_t i = record.contrib_offset[t]; i < record.contrib_offset[t + 1]; ++i)
        arc_load_[record.contrib_arc[i]] += record.contrib_val[i];
      disconnected_ += record.disconnected[t];
      disconnected_volume_ += record.disconnected_volume[t];
      ++scratch.stats_.dests_replayed;
    }
  }
}

void ClassRouting::end_to_end_delays(const Graph& g, std::span<const double> arc_cost,
                                     ArcAliveMask alive_mask,
                                     std::span<const double> arc_delay_ms,
                                     const TrafficMatrix& demands, SlaDelayMode mode,
                                     std::span<const NodeId> skip_nodes,
                                     std::vector<double>& out) const {
  const std::size_t n = g.num_nodes();
  if (arc_delay_ms.size() != g.num_arcs())
    throw std::invalid_argument("end_to_end_delays: arc_delay size mismatch");
  if (!computed_for(g))
    throw std::logic_error("end_to_end_delays: routing not computed for this graph");
  const std::size_t words = tight_words(g.num_arcs());
  out.assign(n * n, -1.0);

  const GraphCsr& csr = g.csr();
  const bool worst = mode == SlaDelayMode::kWorstPath;
  std::vector<double> node_delay(n);
  std::vector<std::uint64_t> row(words);

  for (NodeId t = 0; t < n; ++t) {
    if (is_skipped(skip_nodes, t)) continue;
    const auto& dist = dist_[t];

    bool any_demand = false;
    for (NodeId s = 0; s < n && !any_demand; ++s)
      any_demand = (s != t && !is_skipped(skip_nodes, s) && demands.at(s, t) > 0.0);
    if (!any_demand) continue;

    // The sweep marked the tight out-arcs of every node that carried flow
    // toward t. A node it never reached with flow (no demand through it, or
    // float underflow of its share) gets its bits from the predicate here.
    std::copy_n(tight_.begin() + static_cast<std::ptrdiff_t>(t * words), words, row.begin());

    // DP over the shortest-path DAG in increasing distance — order row t
    // backward, so every successor of a node is final before it:
    //   expected: E[u] = sum_k (1/k)(D_a + E[dst_a]) over tight arcs
    //   worst:    W[u] = max_a (D_a + W[dst_a])
    // A node is summed over its tight slots in CSR order.
    node_delay[t] = 0.0;
    const std::span<const NodeId> order = sweep_row(t);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      const std::uint32_t begin = csr.out_offset[u];
      const std::uint32_t end = csr.out_offset[u + 1];
      if (next_bit(row.data(), begin, end) == end) {
        for (std::uint32_t k = begin; k < end; ++k) {
          const ArcId a = csr.out_arc[k];
          if (alive(alive_mask, a) && arc_is_tight(u, csr.out_head[k], arc_cost[a], dist))
            set_bit(row.data(), k);
        }
      }
      int tight_count = 0;
      double acc = worst ? -kInfDist : 0.0;
      for (std::uint32_t k = next_bit(row.data(), begin, end); k < end;
           k = next_bit(row.data(), k + 1, end)) {
        ++tight_count;
        const double through = arc_delay_ms[csr.out_arc[k]] + node_delay[csr.out_head[k]];
        acc = worst ? std::max(acc, through) : acc + through;
      }
      node_delay[u] = worst ? acc : (tight_count > 0 ? acc / tight_count : 0.0);
    }

    for (NodeId s = 0; s < n; ++s) {
      if (s == t || is_skipped(skip_nodes, s) || demands.at(s, t) <= 0.0) continue;
      out[static_cast<std::size_t>(s) * n + t] = dist[s] == kInfDist ? kInfDist : node_delay[s];
    }
  }
}

}  // namespace dtr
