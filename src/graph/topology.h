#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace dtr {

/// Largest router count any generator builds (RandTopo, NearTopo, PLTopo and
/// the ISP generator) — the top scale tier. Evaluation keeps a dense n x n
/// traffic matrix and per-destination label state, so far larger graphs
/// would exhaust memory long before an optimizer run finished.
inline constexpr int kMaxTopologyNodes = 10000;

/// Throws std::invalid_argument("topology: num_nodes must be <= 10000")
/// above kMaxTopologyNodes.
void check_node_limit(int num_nodes);

/// Synthesized-topology parameters (Sec. V-A1). Nodes are placed uniformly at
/// random in a unit square; propagation delays derive from Euclidean distance
/// and are then calibrated against the SLA bound via
/// `calibrate_delays_to_sla`.
struct SynthTopoParams {
  int num_nodes = 30;
  /// Target mean undirected degree (the paper's "30 nodes, 180 links" is a
  /// degree-6 graph: 90 physical links == 180 directed arcs).
  double avg_degree = 6.0;
  double capacity_mbps = 500.0;
  std::uint64_t seed = 1;
};

/// RandTopo: random graph of given average node degree. Built as a random
/// cycle (guaranteeing 2-edge-connectivity, so no single link failure can
/// partition the network) plus uniformly random chords up to the target link
/// count.
Graph make_rand_topo(const SynthTopoParams& params);

/// NearTopo: nodes connect to their closest neighbors (round-robin
/// nearest-neighbor attachment), then minimal geographic fix-ups for
/// connectivity and 2-edge-connectivity. Deliberately yields the paper's
/// low-path-diversity outlier: long paths funnel through a small core.
Graph make_near_topo(const SynthTopoParams& params);

struct PowerLawParams {
  int num_nodes = 30;
  /// Attachments per new node (Barabási–Albert "m"). With m seed nodes and no
  /// seed edges, the link count is m * (num_nodes - m): n=30, m=3 gives 81
  /// physical links == the paper's "PLTopo [30,162]" arcs.
  int attachments = 3;
  double capacity_mbps = 500.0;
  std::uint64_t seed = 1;
};

/// PLTopo: power-law topology via preferential attachment [Barabási–Albert].
Graph make_pl_topo(const PowerLawParams& params);

/// Sets every link's propagation delay to geometric distance * ms_per_unit.
void set_delays_from_positions(Graph& g, double ms_per_unit);

/// Scales all propagation delays so the propagation diameter (longest
/// shortest-propagation path) equals `ratio * theta_ms`. The paper scales
/// synthesized-topology delays "to ensure a reasonable match between the
/// target SLA bound and the network diameter"; ratio defaults to 0.85 so the
/// SLA is attainable but tight for the most distant pairs.
void calibrate_delays_to_sla(Graph& g, double theta_ms, double ratio = 0.85);

}  // namespace dtr
