#include "graph/isp.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numbers>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/connectivity.h"
#include "graph/graph_io.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace dtr {

namespace {

struct City {
  const char* name;
  double lon;
  double lat;
};

// 16 PoPs spanning the continental US (approximate city coordinates).
constexpr City kCities[] = {
    {"Seattle", -122.33, 47.61},      // 0
    {"Sunnyvale", -122.04, 37.37},    // 1
    {"LosAngeles", -118.24, 34.05},   // 2
    {"Phoenix", -112.07, 33.45},      // 3
    {"SaltLakeCity", -111.89, 40.76}, // 4
    {"Denver", -104.99, 39.74},       // 5
    {"Dallas", -96.80, 32.78},        // 6
    {"Houston", -95.37, 29.76},       // 7
    {"KansasCity", -94.58, 39.10},    // 8
    {"Chicago", -87.63, 41.88},       // 9
    {"StLouis", -90.20, 38.63},       // 10
    {"Atlanta", -84.39, 33.75},       // 11
    {"Orlando", -81.38, 28.54},       // 12
    {"WashingtonDC", -77.04, 38.91},  // 13
    {"NewYork", -74.01, 40.71},       // 14
    {"Boston", -71.06, 42.36},        // 15
};

// 35 bidirectional links (70 arcs), degrees 2..7, average 4.375 — matching
// the paper's [16 nodes, 70 links] with a realistic mesh-of-rings structure.
constexpr std::pair<int, int> kLinks[] = {
    {0, 1},  {0, 4},  {0, 5},  {0, 9},          // Seattle
    {1, 2},  {1, 4},  {1, 5},                   // Sunnyvale
    {2, 3},  {2, 4},  {2, 6},                   // Los Angeles
    {3, 5},  {3, 6},  {3, 7},                   // Phoenix
    {4, 5},                                     // Salt Lake City
    {5, 8},  {5, 6},                            // Denver
    {6, 7},  {6, 8},  {6, 11}, {6, 10},         // Dallas
    {7, 11}, {7, 12},                           // Houston
    {8, 9},  {8, 10},                           // Kansas City
    {9, 10}, {9, 14}, {9, 13}, {9, 15},         // Chicago
    {10, 11}, {10, 13},                         // St Louis
    {11, 12}, {11, 13},                         // Atlanta
    {12, 13},                                   // Orlando
    {13, 14},                                   // Washington DC
    {14, 15},                                   // New York
};

/// Equirectangular projection to kilometres around the map's mean latitude.
Point project(double lon, double lat, double mean_lat_deg) {
  constexpr double kKmPerDegLat = 110.57;
  constexpr double kKmPerDegLonAtEquator = 111.32;
  const double scale = std::cos(mean_lat_deg * std::numbers::pi / 180.0);
  return {lon * kKmPerDegLonAtEquator * scale, lat * kKmPerDegLat};
}

// Fiber propagation: ~5 µs per km.
constexpr double kMsPerKm = 0.005;

}  // namespace

IspTopology make_isp_backbone(double capacity_mbps) {
  IspTopology topo;
  double mean_lat = 0.0;
  for (const City& c : kCities) mean_lat += c.lat;
  mean_lat /= static_cast<double>(std::size(kCities));

  for (const City& c : kCities) {
    topo.graph.add_node(project(c.lon, c.lat, mean_lat));
    topo.city_names.emplace_back(c.name);
  }

  for (const auto& [u, v] : kLinks) {
    const double km = euclidean_distance(topo.graph.position(static_cast<NodeId>(u)),
                                         topo.graph.position(static_cast<NodeId>(v)));
    topo.graph.add_link(static_cast<NodeId>(u), static_cast<NodeId>(v), capacity_mbps,
                        km * kMsPerKm);
  }
  return topo;
}

namespace {

using NodePair = std::pair<NodeId, NodeId>;

NodePair canonical(NodeId u, NodeId v) { return u < v ? NodePair{u, v} : NodePair{v, u}; }

/// Geographic link: fiber delay from planar distance, floored so co-located
/// routers (two cores in one rack) never produce a zero-delay link.
void add_geo_link(Graph& g, std::set<NodePair>& used, NodeId u, NodeId v,
                  double capacity_mbps) {
  used.insert(canonical(u, v));
  const double km = euclidean_distance(g.position(u), g.position(v));
  g.add_link(u, v, capacity_mbps, std::max(km * kMsPerKm, 1e-3));
}

/// Weighted pick over [0, n) with weight w[i] + 1 (the +1 bootstraps
/// zero-degree entries, same preferential-attachment idiom as make_pl_topo).
std::size_t preferential_pick(Rng& rng, std::span<const int> w) {
  long total = 0;
  for (int x : w) total += x + 1;
  long pick = static_cast<long>(rng.uniform_index(static_cast<std::uint64_t>(total)));
  for (std::size_t i = 0; i < w.size(); ++i) {
    pick -= w[i] + 1;
    if (pick < 0) return i;
  }
  return w.size() - 1;  // unreachable for total > 0
}

}  // namespace

Graph make_isp_topo(const IspGenParams& p) {
  check_node_limit(p.num_nodes);
  if (p.num_pops < 3) throw std::invalid_argument("make_isp_topo: need >= 3 PoPs");
  if (p.cores_per_pop < 2)
    throw std::invalid_argument("make_isp_topo: need >= 2 cores per PoP");
  const int num_cores = p.num_pops * p.cores_per_pop;
  if (p.num_nodes < num_cores)
    throw std::invalid_argument("make_isp_topo: num_nodes < num_pops * cores_per_pop");
  if (p.backbone_degree < 2.0)
    throw std::invalid_argument("make_isp_topo: backbone_degree must be >= 2");
  if (!(p.backbone_capacity_mbps > 0.0) || !(p.access_capacity_mbps > 0.0))
    throw std::invalid_argument("make_isp_topo: capacities must be > 0");

  Rng rng(p.seed);
  Graph g;

  // PoP centers on a continental-scale plane (km); cores jitter inside the
  // metro (~25 km), access routers a bit wider (~60 km).
  constexpr double kMapWidthKm = 4800.0;
  constexpr double kMapHeightKm = 2900.0;
  constexpr double kCoreJitterKm = 25.0;
  constexpr double kAccessJitterKm = 60.0;

  std::vector<Point> pop_center(static_cast<std::size_t>(p.num_pops));
  for (Point& c : pop_center)
    c = {rng.uniform(0.0, kMapWidthKm), rng.uniform(0.0, kMapHeightKm)};

  // Node ids: cores first (PoP-major), then the access tier.
  const auto core_id = [&](int pop, int j) {
    return static_cast<NodeId>(pop * p.cores_per_pop + j);
  };
  for (int pop = 0; pop < p.num_pops; ++pop)
    for (int j = 0; j < p.cores_per_pop; ++j)
      g.add_node({pop_center[pop].x + rng.uniform(-kCoreJitterKm, kCoreJitterKm),
                  pop_center[pop].y + rng.uniform(-kCoreJitterKm, kCoreJitterKm)});

  std::set<NodePair> used;

  // Intra-PoP core mesh.
  for (int pop = 0; pop < p.num_pops; ++pop)
    for (int j = 0; j < p.cores_per_pop; ++j)
      for (int k = j + 1; k < p.cores_per_pop; ++k)
        add_geo_link(g, used, core_id(pop, j), core_id(pop, k),
                     p.backbone_capacity_mbps);

  // Backbone ring over the PoPs in a random order (2-edge-connected at the
  // PoP level), each span realized between random cores of the two PoPs.
  std::vector<int> pop_degree(static_cast<std::size_t>(p.num_pops), 0);
  std::vector<int> order(static_cast<std::size_t>(p.num_pops));
  for (int i = 0; i < p.num_pops; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng.engine());
  const auto link_pops = [&](int a, int b) {
    const NodeId u = core_id(a, static_cast<int>(rng.uniform_index(
                                    static_cast<std::uint64_t>(p.cores_per_pop))));
    const NodeId v = core_id(b, static_cast<int>(rng.uniform_index(
                                    static_cast<std::uint64_t>(p.cores_per_pop))));
    if (used.count(canonical(u, v)) != 0) return false;
    add_geo_link(g, used, u, v, p.backbone_capacity_mbps);
    ++pop_degree[static_cast<std::size_t>(a)];
    ++pop_degree[static_cast<std::size_t>(b)];
    return true;
  };
  for (int i = 0; i < p.num_pops; ++i)
    link_pops(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>((i + 1) % p.num_pops)]);

  // Degree-skewed extra inter-PoP adjacencies up to the target mean degree.
  const long extra_backbone =
      std::lround(p.backbone_degree * p.num_pops / 2.0) - p.num_pops;
  long added = 0;
  std::size_t guard = 256 * static_cast<std::size_t>(p.num_pops) + 4096;
  while (added < extra_backbone) {
    if (guard-- == 0) break;  // dense small backbones can saturate; keep what fits
    const int a = static_cast<int>(preferential_pick(rng, pop_degree));
    const int b = static_cast<int>(preferential_pick(rng, pop_degree));
    if (a == b) continue;
    if (link_pops(a, b)) ++added;
  }

  // Access tier: PoP membership drawn preferentially by PoP backbone degree
  // (the Rocketfuel skew: hub PoPs host the most routers), dual-homed to two
  // distinct cores of the PoP.
  for (int i = num_cores; i < p.num_nodes; ++i) {
    const int pop = static_cast<int>(preferential_pick(rng, pop_degree));
    const NodeId r =
        g.add_node({pop_center[pop].x + rng.uniform(-kAccessJitterKm, kAccessJitterKm),
                    pop_center[pop].y + rng.uniform(-kAccessJitterKm, kAccessJitterKm)});
    const int h1 = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.cores_per_pop)));
    int h2 = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(p.cores_per_pop - 1)));
    if (h2 >= h1) ++h2;
    add_geo_link(g, used, r, core_id(pop, h1), p.access_capacity_mbps);
    add_geo_link(g, used, r, core_id(pop, h2), p.access_capacity_mbps);
  }

  // 2-edge-connectivity fix-up (deterministic, RNG-free): access routers are
  // dual-homed, but a random core pick can leave a core reachable only
  // through its PoP mesh edge, making that edge a bridge. Same closest-pair
  // augmentation as topology.cpp's generators.
  std::size_t fix_guard = 4 * static_cast<std::size_t>(p.num_nodes) + 16;
  while (fix_guard-- > 0) {
    const auto bridges = find_bridges(g);
    if (bridges.empty()) break;
    const LinkId bridge = bridges.front();
    std::vector<int> label(g.num_nodes(), -1);
    int next = 0;
    std::vector<NodeId> stack;
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (label[s] != -1) continue;
      label[s] = next;
      stack.push_back(s);
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (ArcId a : g.out_arcs(u)) {
          if (g.arc(a).link == bridge) continue;
          const NodeId v = g.arc(a).dst;
          if (label[v] == -1) {
            label[v] = next;
            stack.push_back(v);
          }
        }
      }
      ++next;
    }
    double best = std::numeric_limits<double>::infinity();
    NodeId bu = kInvalidNode, bv = kInvalidNode;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        if (label[u] == label[v] || used.count(canonical(u, v)) != 0) continue;
        const double d = euclidean_distance(g.position(u), g.position(v));
        if (d < best) {
          best = d;
          bu = u;
          bv = v;
        }
      }
    }
    if (bu == kInvalidNode) break;  // pathological tiny graph: nothing addable
    add_geo_link(g, used, bu, bv, p.access_capacity_mbps);
  }

  // Optional dense-peering chords (how the 10k-link scale fixtures are
  // built): preferential router-to-router attachment until the mean
  // undirected degree reaches avg_degree.
  if (p.avg_degree > 0.0) {
    const std::size_t target = static_cast<std::size_t>(
        std::lround(p.avg_degree * p.num_nodes / 2.0));
    std::vector<int> degree(static_cast<std::size_t>(p.num_nodes), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      degree[u] = static_cast<int>(g.link_degree(u));
    std::size_t chord_guard = 64 * target + 4096;
    while (g.num_links() < target) {
      if (chord_guard-- == 0)
        throw std::runtime_error("make_isp_topo: chord sampling stalled");
      const NodeId u = static_cast<NodeId>(preferential_pick(rng, degree));
      const NodeId v = static_cast<NodeId>(preferential_pick(rng, degree));
      if (u == v || used.count(canonical(u, v)) != 0) continue;
      add_geo_link(g, used, u, v, p.access_capacity_mbps);
      ++degree[u];
      ++degree[v];
    }
  }
  return g;
}

Graph load_isp_topo(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_isp_topo: cannot open " + path);
  return read_graph(in);
}

}  // namespace dtr
