#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace dtr {

/// The paper evaluates a (proprietary) "North American ISP backbone network
/// of 16 nodes and 70 links". We substitute a hand-built 16-city US backbone
/// with the same size: 16 PoPs, 35 bidirectional links (70 directed arcs),
/// geographic propagation delays in the paper's ~5-20 ms range
/// (fiber at 5 µs/km over great-circle-ish planar distances).
struct IspTopology {
  Graph graph;
  std::vector<std::string> city_names;  ///< indexed by NodeId
};

/// Builds the backbone. All links are `capacity_mbps` (paper: 500 Mbps).
IspTopology make_isp_backbone(double capacity_mbps = 500.0);

/// Rocketfuel-style synthetic ISP generator (deterministic, seeded): the
/// scale axis beyond the 16-city map. Structure:
///
///  - `num_pops` PoPs placed uniformly on a continental-scale plane
///    (~4800 x 2900 km, positions in km so delays and geo-SRLG synthesis
///    work unchanged);
///  - each PoP holds `cores_per_pop` fully-meshed core routers jittered
///    around the PoP center;
///  - a backbone over the PoPs: a random ring (2-edge-connectivity — no
///    single link failure partitions the network) plus preferential
///    (degree-skewed) inter-PoP adjacencies up to mean PoP degree
///    `backbone_degree`, each realized between seeded-random core routers;
///  - the remaining `num_nodes - num_pops * cores_per_pop` routers form the
///    access tier: each is assigned to a PoP preferentially by PoP degree
///    (big PoPs grow bigger — the Rocketfuel degree skew) and dual-homed to
///    two distinct cores of its PoP;
///  - if `avg_degree` > 0, preferential router-to-router peering chords are
///    added until the mean undirected degree reaches it (models dense
///    peering/parallel adjacencies; how 1000-node/10k-link fixtures are
///    built).
///
/// Propagation delays are geographic (fiber ~5 µs/km); backbone and
/// intra-PoP links carry `backbone_capacity_mbps`, access uplinks and
/// peering chords `access_capacity_mbps`. Same params + seed => the same
/// graph, byte for byte.
struct IspGenParams {
  int num_nodes = 300;   ///< total routers (cores + access)
  int num_pops = 12;     ///< >= 3
  int cores_per_pop = 2; ///< >= 2 (dual-homing needs two cores)
  /// Target mean inter-PoP backbone degree (>= 2; 2 is the bare ring).
  double backbone_degree = 3.0;
  /// If > 0, add degree-skewed peering chords until the mean undirected
  /// node degree reaches this value.
  double avg_degree = 0.0;
  double backbone_capacity_mbps = 10000.0;
  double access_capacity_mbps = 2500.0;
  std::uint64_t seed = 1;
};

Graph make_isp_topo(const IspGenParams& params);

/// Loads a topology from a `dtr-graph 1` text file (see graph_io.h) — the
/// `topology = isp:file=...` campaign axis for measured/Rocketfuel maps.
/// Throws std::runtime_error if the file is missing or malformed.
Graph load_isp_topo(const std::string& path);

}  // namespace dtr
