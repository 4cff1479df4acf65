#include "graph/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/spf.h"
#include "util/rng.h"

namespace dtr {

namespace {

using NodePair = std::pair<NodeId, NodeId>;

NodePair canonical(NodeId u, NodeId v) { return u < v ? NodePair{u, v} : NodePair{v, u}; }

void place_nodes_uniformly(Graph& g, int n, Rng& rng) {
  for (int i = 0; i < n; ++i) g.add_node({rng.uniform(), rng.uniform()});
}

int target_link_count(const SynthTopoParams& p) {
  if (p.num_nodes < 3) throw std::invalid_argument("topology: need >= 3 nodes");
  check_node_limit(p.num_nodes);
  // Negated so NaN fails too.
  if (!(p.avg_degree >= 2.0)) throw std::invalid_argument("topology: avg_degree must be >= 2");
  if (p.avg_degree > p.num_nodes - 1)
    throw std::invalid_argument("topology: avg_degree must be <= num_nodes - 1");
  const int m = static_cast<int>(std::lround(p.avg_degree * p.num_nodes / 2.0));
  return std::max(m, p.num_nodes);  // at least a cycle
}

/// Adds link u-v with placeholder delay (distances applied afterwards).
void add_raw_link(Graph& g, std::set<NodePair>& used, NodeId u, NodeId v,
                  double capacity) {
  used.insert(canonical(u, v));
  g.add_link(u, v, capacity, /*prop_delay_ms=*/1.0);
}

/// Component labels when link `skip` is removed.
std::vector<int> components_without_link(const Graph& g, LinkId skip) {
  const std::size_t n = g.num_nodes();
  std::vector<int> label(n, -1);
  int next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (ArcId a : g.out_arcs(u)) {
        if (g.arc(a).link == skip) continue;
        const NodeId v = g.arc(a).dst;
        if (label[v] == -1) {
          label[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  return label;
}

/// Repeatedly removes bridges by adding the geometrically closest
/// non-adjacent pair spanning the two sides of a bridge. Keeps NearTopo's
/// local structure while guaranteeing single-link-failure survivability.
void ensure_two_edge_connected(Graph& g, std::set<NodePair>& used, double capacity) {
  const std::size_t guard = 4 * g.num_nodes() + 16;
  for (std::size_t round = 0; round < guard; ++round) {
    const auto bridges = find_bridges(g);
    if (bridges.empty() && is_connected(g)) return;

    std::vector<int> label;
    if (!is_connected(g)) {
      label = connected_components(g);
    } else {
      label = components_without_link(g, bridges.front());
    }
    // Closest pair across different components, not already linked.
    double best = std::numeric_limits<double>::infinity();
    NodeId bu = kInvalidNode, bv = kInvalidNode;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (label[u] == label[v]) continue;
        if (used.count(canonical(u, v)) != 0) continue;
        const double d = euclidean_distance(g.position(u), g.position(v));
        if (d < best) {
          best = d;
          bu = u;
          bv = v;
        }
      }
    }
    if (bu == kInvalidNode) return;  // nothing addable (pathological tiny graph)
    add_raw_link(g, used, bu, bv, capacity);
  }
  throw std::runtime_error("topology: 2-edge-connectivity augmentation did not converge");
}

}  // namespace

void check_node_limit(int num_nodes) {
  if (num_nodes > kMaxTopologyNodes)
    throw std::invalid_argument("topology: num_nodes must be <= " +
                                std::to_string(kMaxTopologyNodes));
}

Graph make_rand_topo(const SynthTopoParams& params) {
  const int target = target_link_count(params);
  Rng rng(params.seed);
  Graph g;
  place_nodes_uniformly(g, params.num_nodes, rng);
  const int n = params.num_nodes;

  std::set<NodePair> used;
  // Random cycle: 2-edge-connected backbone touching every node.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  for (int i = 0; i < n; ++i) {
    const NodeId u = order[i];
    const NodeId v = order[(i + 1) % n];
    if (used.count(canonical(u, v)) == 0) add_raw_link(g, used, u, v, params.capacity_mbps);
  }
  // Uniform random chords up to the target count.
  const std::size_t max_links = static_cast<std::size_t>(n) * (n - 1) / 2;
  std::size_t guard = 64 * max_links;
  while (g.num_links() < static_cast<std::size_t>(target) && used.size() < max_links) {
    if (guard-- == 0) throw std::runtime_error("make_rand_topo: chord sampling stalled");
    const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
    const NodeId v = static_cast<NodeId>(rng.uniform_index(n));
    if (u == v || used.count(canonical(u, v)) != 0) continue;
    add_raw_link(g, used, u, v, params.capacity_mbps);
  }
  set_delays_from_positions(g, /*ms_per_unit=*/20.0);
  return g;
}

Graph make_near_topo(const SynthTopoParams& params) {
  const int target = target_link_count(params);
  Rng rng(params.seed);
  Graph g;
  place_nodes_uniformly(g, params.num_nodes, rng);
  const int n = params.num_nodes;

  std::set<NodePair> used;
  // Round-robin nearest-neighbor attachment: in each round every node links
  // to its closest not-yet-adjacent neighbor, until the link budget is spent.
  bool progress = true;
  while (g.num_links() < static_cast<std::size_t>(target) && progress) {
    progress = false;
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
      if (g.num_links() >= static_cast<std::size_t>(target)) break;
      double best = std::numeric_limits<double>::infinity();
      NodeId bv = kInvalidNode;
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
        if (v == u || used.count(canonical(u, v)) != 0) continue;
        const double d = euclidean_distance(g.position(u), g.position(v));
        if (d < best) {
          best = d;
          bv = v;
        }
      }
      if (bv != kInvalidNode) {
        add_raw_link(g, used, u, bv, params.capacity_mbps);
        progress = true;
      }
    }
  }
  ensure_two_edge_connected(g, used, params.capacity_mbps);
  set_delays_from_positions(g, /*ms_per_unit=*/20.0);
  return g;
}

Graph make_pl_topo(const PowerLawParams& params) {
  check_node_limit(params.num_nodes);
  if (params.num_nodes <= params.attachments)
    throw std::invalid_argument("make_pl_topo: need num_nodes > attachments");
  if (params.attachments < 2)
    throw std::invalid_argument("make_pl_topo: attachments must be >= 2");
  Rng rng(params.seed);
  Graph g;
  place_nodes_uniformly(g, params.num_nodes, rng);

  std::set<NodePair> used;
  std::vector<int> degree(params.num_nodes, 0);
  // Seed: `attachments` isolated nodes; each newcomer attaches to m distinct
  // existing nodes with probability proportional to degree+1 (the +1
  // bootstraps the zero-degree seeds, preserving the paper's link count
  // m*(n-m): 3*(30-3)=81 links == 162 arcs).
  for (int i = params.attachments; i < params.num_nodes; ++i) {
    std::set<NodeId> chosen;
    std::size_t guard = 4096;
    while (chosen.size() < static_cast<std::size_t>(params.attachments)) {
      if (guard-- == 0) throw std::runtime_error("make_pl_topo: attachment sampling stalled");
      // Weighted draw over existing nodes by degree+1.
      long total = 0;
      for (int v = 0; v < i; ++v) total += degree[v] + 1;
      long pick = static_cast<long>(rng.uniform_index(static_cast<std::uint64_t>(total)));
      NodeId v = 0;
      for (int cand = 0; cand < i; ++cand) {
        pick -= degree[cand] + 1;
        if (pick < 0) {
          v = static_cast<NodeId>(cand);
          break;
        }
      }
      chosen.insert(v);
    }
    for (NodeId v : chosen) {
      add_raw_link(g, used, static_cast<NodeId>(i), v, params.capacity_mbps);
      ++degree[i];
      ++degree[v];
    }
  }
  ensure_two_edge_connected(g, used, params.capacity_mbps);
  set_delays_from_positions(g, /*ms_per_unit=*/20.0);
  return g;
}

void set_delays_from_positions(Graph& g, double ms_per_unit) {
  if (!(ms_per_unit > 0.0)) throw std::invalid_argument("set_delays_from_positions: scale");
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Arc& a = g.arc(g.link_arcs(l).front());
    const double d = euclidean_distance(g.position(a.src), g.position(a.dst));
    // Floor keeps degenerate co-located nodes from producing zero-delay links.
    g.set_link_prop_delay(l, std::max(d * ms_per_unit, 1e-3));
  }
}

void calibrate_delays_to_sla(Graph& g, double theta_ms, double ratio) {
  if (!(theta_ms > 0.0) || !(ratio > 0.0))
    throw std::invalid_argument("calibrate_delays_to_sla: bad parameters");
  const double diameter = propagation_diameter_ms(g);
  if (diameter <= 0.0) return;
  g.scale_prop_delays(ratio * theta_ms / diameter);
}

}  // namespace dtr
