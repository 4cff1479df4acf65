#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/spf.h"
#include "graph/topology.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace dtr {
namespace {

std::vector<double> unit_costs(const Graph& g) {
  return std::vector<double>(g.num_arcs(), 1.0);
}

TEST(SpfTest, DiamondDistances) {
  const Graph g = test::make_diamond();
  std::vector<double> dist;
  shortest_distances_to(g, 3, unit_costs(g), {}, dist);
  EXPECT_DOUBLE_EQ(dist[3], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.0);
  EXPECT_DOUBLE_EQ(dist[0], 2.0);
}

TEST(SpfTest, ForwardAndReverseAgreeOnSymmetricCosts) {
  const Graph g = test::make_ring_with_chords(8);
  const auto costs = unit_costs(g);
  std::vector<double> to_t, from_t;
  shortest_distances_to(g, 5, costs, {}, to_t);
  shortest_distances_from(g, 5, costs, {}, from_t);
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_DOUBLE_EQ(to_t[u], from_t[u]);
}

TEST(SpfTest, RespectsAliveMask) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  // Kill link 0-1 (both arcs of link 0).
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;
  std::vector<double> dist;
  shortest_distances_to(g, 3, unit_costs(g), alive, dist);
  EXPECT_DOUBLE_EQ(dist[0], 2.0);  // still via 2
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
}

TEST(SpfTest, UnreachableIsInfinity) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  std::vector<double> dist;
  shortest_distances_to(g, 0, unit_costs(g), {}, dist);
  EXPECT_EQ(dist[2], kInfDist);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
}

TEST(SpfTest, AsymmetricCostsUseArcDirection) {
  Graph g(2);
  g.add_link(0, 1, 100.0, 1.0);  // arcs 0 (0->1) and 1 (1->0)
  std::vector<double> costs{5.0, 9.0};
  std::vector<double> dist;
  shortest_distances_to(g, 1, costs, {}, dist);
  EXPECT_DOUBLE_EQ(dist[0], 5.0);
  shortest_distances_to(g, 0, costs, {}, dist);
  EXPECT_DOUBLE_EQ(dist[1], 9.0);
}

TEST(SpfTest, InputValidation) {
  const Graph g = test::make_diamond();
  std::vector<double> dist;
  std::vector<double> short_costs(2, 1.0);
  EXPECT_THROW(shortest_distances_to(g, 0, short_costs, {}, dist), std::invalid_argument);
  EXPECT_THROW(shortest_distances_to(g, 99, unit_costs(g), {}, dist), std::out_of_range);
  std::vector<std::uint8_t> bad_mask(3, 1);
  EXPECT_THROW(shortest_distances_to(g, 0, unit_costs(g), bad_mask, dist),
               std::invalid_argument);
}

// Property: Dijkstra equals Floyd–Warshall on random weighted graphs.
TEST(SpfTest, MatchesFloydWarshallReference) {
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = make_rand_topo({12, 4.0, 500.0, static_cast<std::uint64_t>(trial + 1)});
    std::vector<double> costs(g.num_arcs());
    for (double& c : costs) c = rng.uniform_int(1, 50);

    // Floyd–Warshall over arcs.
    const std::size_t n = g.num_nodes();
    std::vector<std::vector<double>> fw(n, std::vector<double>(n, kInfDist));
    for (std::size_t i = 0; i < n; ++i) fw[i][i] = 0.0;
    for (ArcId a = 0; a < g.num_arcs(); ++a)
      fw[g.arc(a).src][g.arc(a).dst] = std::min(fw[g.arc(a).src][g.arc(a).dst], costs[a]);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          if (fw[i][k] + fw[k][j] < fw[i][j]) fw[i][j] = fw[i][k] + fw[k][j];

    const auto d = all_pairs_distances_to(g, costs);
    for (NodeId t = 0; t < n; ++t)
      for (NodeId u = 0; u < n; ++u)
        EXPECT_DOUBLE_EQ(d[t][u], fw[u][t]) << "trial " << trial;
  }
}

TEST(SpfTest, HopDistances) {
  const Graph g = test::make_diamond();
  std::vector<int> hops;
  hop_distances_from(g, 0, {}, hops);
  EXPECT_EQ(hops[0], 0);
  EXPECT_EQ(hops[1], 1);
  EXPECT_EQ(hops[2], 1);
  EXPECT_EQ(hops[3], 2);
}

TEST(SpfTest, HopDistancesUnreachable) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  std::vector<int> hops;
  hop_distances_from(g, 0, {}, hops);
  EXPECT_EQ(hops[2], -1);
}

TEST(SpfTest, HopDistancesWithMask) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;  // no 0-1
  for (ArcId a : g.link_arcs(1)) alive[a] = 0;  // no 0-2
  std::vector<int> hops;
  hop_distances_from(g, 0, alive, hops);
  EXPECT_EQ(hops[3], -1);
}

TEST(SpfTest, PropagationDiameterOfRing) {
  // Ring of 6 with 1ms links: farthest pair is 3 hops = 3ms.
  const Graph g = test::make_ring(6);
  EXPECT_DOUBLE_EQ(propagation_diameter_ms(g), 3.0);
}

TEST(SpfTest, PropagationDiameterDegenerate) {
  Graph g(1);
  EXPECT_DOUBLE_EQ(propagation_diameter_ms(g), 0.0);
}

std::vector<double> weight_costs(const Graph& g, int wmax, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> costs(g.num_arcs());
  // Both directions of a link share the weight, like WeightSetting expansion.
  std::vector<double> link_weight(g.num_links());
  for (double& w : link_weight) w = static_cast<double>(rng.uniform_int(1, wmax));
  for (ArcId a = 0; a < g.num_arcs(); ++a) costs[a] = link_weight[g.arc(a).link];
  return costs;
}

TEST(SpfTest, SettleOrderAscendsByDistanceThenId) {
  // Weights in {1, 2} (and all ones) on dense graphs: most distances tie.
  // The settle output is the load sweep's visit order reversed, so it must
  // be the (dist, id) order exactly, and asking for it must not move a label.
  for (const std::uint64_t seed : {2ull, 7ull}) {
    const Graph g = make_rand_topo({16, 5.0, 500.0, seed});
    for (const std::vector<double>& costs : {unit_costs(g), weight_costs(g, 2, seed)}) {
      std::vector<double> plain, dist;
      std::vector<NodeId> settled;
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        shortest_distances_to(g, t, costs, {}, plain);
        shortest_distances_to(g, t, costs, {}, dist, &settled);
        ASSERT_EQ(std::memcmp(plain.data(), dist.data(), dist.size() * sizeof(double)), 0)
            << "dest " << t;
        ASSERT_EQ(settled.size(), g.num_nodes());
        EXPECT_EQ(settled.front(), t);
        for (std::size_t i = 1; i < settled.size(); ++i) {
          const NodeId a = settled[i - 1], b = settled[i];
          EXPECT_TRUE(dist[a] < dist[b] || (dist[a] == dist[b] && a < b))
              << "dest " << t << " position " << i;
        }
      }
    }
  }
  // Unreachable nodes are never settled.
  Graph g(4);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(2, 3, 100.0, 1.0);
  std::vector<double> dist;
  std::vector<NodeId> settled;
  shortest_distances_to(g, 1, unit_costs(g), {}, dist, &settled);
  EXPECT_EQ(settled, (std::vector<NodeId>{1, 0}));
}

TEST(DeltaSpfTest, LastAffectedNamesEveryRelabelledNode) {
  const Graph g = make_rand_topo({14, 4.0, 500.0, 3});
  const std::vector<double> costs = weight_costs(g, 2, 11);
  DeltaSpfScratch scratch;
  std::vector<double> base, delta;
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const std::span<const ArcId> removed = g.link_arcs(l);
    for (ArcId a : removed) alive[a] = 0;
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      shortest_distances_to(g, t, costs, {}, base);
      delta = base;
      const std::ptrdiff_t touched =
          delta_spf_remove_arcs(g, costs, alive, removed, delta, g.num_nodes(), scratch);
      ASSERT_GE(touched, 0);
      const std::span<const NodeId> affected = scratch.last_affected();
      ASSERT_EQ(affected.size(), static_cast<std::size_t>(touched));
      std::vector<int> seen(g.num_nodes(), 0);
      for (NodeId u : affected) EXPECT_EQ(++seen[u], 1) << "listed twice: " << u;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (delta[u] != base[u]) {
          EXPECT_EQ(seen[u], 1) << "link " << l << " node " << u;
        }
      }
    }
    for (ArcId a : removed) alive[a] = 1;
  }
}

// ---------------------------------------------------------------------------
// delta_spf_remove_arcs: the incremental update must reproduce a from-scratch
// Dijkstra bit for bit, for every destination and every removed link.
// ---------------------------------------------------------------------------

void expect_delta_matches_full(const Graph& g, std::span<const double> costs) {
  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  std::vector<ArcId> removed;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    removed.assign(g.link_arcs(l).begin(), g.link_arcs(l).end());
    for (ArcId a : removed) alive[a] = 0;
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      shortest_distances_to(g, t, costs, {}, base);
      delta = base;
      const std::ptrdiff_t touched = delta_spf_remove_arcs(
          g, costs, alive, removed, delta, g.num_nodes(), scratch);
      ASSERT_GE(touched, 0);
      shortest_distances_to(g, t, costs, alive, full);
      ASSERT_EQ(delta, full) << "link " << l << " dest " << t;
    }
    for (ArcId a : removed) alive[a] = 1;
  }
}

TEST(DeltaSpfTest, MatchesFullRecomputeOnRandomTopologies) {
  for (const std::uint64_t seed : {1ull, 5ull, 23ull}) {
    const Graph g = make_rand_topo({14, 4.0, 500.0, seed});
    expect_delta_matches_full(g, weight_costs(g, 20, seed + 100));
  }
}

TEST(DeltaSpfTest, MatchesFullRecomputeWithDisconnection) {
  // A path graph: every link is a bridge, so removals cut nodes off and the
  // delta update must drive the severed side to infinity.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 100.0, 1.0);
  expect_delta_matches_full(g, weight_costs(g, 7, 3));
}

TEST(DeltaSpfTest, MatchesFullRecomputeOnLinkPairs) {
  const Graph g = make_rand_topo({12, 4.0, 500.0, 9});
  const std::vector<double> costs = weight_costs(g, 15, 42);
  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  std::vector<ArcId> removed;
  for (LinkId l1 = 0; l1 < g.num_links(); l1 += 3) {
    for (LinkId l2 = l1 + 1; l2 < g.num_links(); l2 += 5) {
      removed.assign(g.link_arcs(l1).begin(), g.link_arcs(l1).end());
      removed.insert(removed.end(), g.link_arcs(l2).begin(), g.link_arcs(l2).end());
      for (ArcId a : removed) alive[a] = 0;
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        shortest_distances_to(g, t, costs, {}, base);
        delta = base;
        ASSERT_GE(delta_spf_remove_arcs(g, costs, alive, removed, delta,
                                        g.num_nodes(), scratch),
                  0);
        shortest_distances_to(g, t, costs, alive, full);
        ASSERT_EQ(delta, full) << "links " << l1 << "+" << l2 << " dest " << t;
      }
      for (ArcId a : removed) alive[a] = 1;
    }
  }
}

TEST(DeltaSpfTest, NoRemovalIsANoOp) {
  const Graph g = test::make_ring_with_chords(10);
  const std::vector<double> costs = weight_costs(g, 9, 2);
  DeltaSpfScratch scratch;
  std::vector<double> dist, expect;
  shortest_distances_to(g, 4, costs, {}, dist);
  expect = dist;
  EXPECT_EQ(delta_spf_remove_arcs(g, costs, {}, {}, dist, g.num_nodes(), scratch), 0);
  EXPECT_EQ(dist, expect);
}

TEST(DeltaSpfTest, AffectedCapAbortsWithDistUntouched) {
  // Path graph, destination at one end, cut the first link: every other node
  // is affected, so any cap below n-1 must abort and leave dist unchanged.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 100.0, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;
  const std::vector<ArcId> removed(g.link_arcs(0).begin(), g.link_arcs(0).end());

  DeltaSpfScratch scratch;
  std::vector<double> base, dist;
  // Toward destination 0, removing link 0 cuts nodes 1..5 off: 5 affected.
  shortest_distances_to(g, 0, costs, {}, base);
  dist = base;
  EXPECT_EQ(delta_spf_remove_arcs(g, costs, alive, removed, dist, 2, scratch), -1);
  EXPECT_EQ(dist, base);
  dist = base;
  EXPECT_EQ(delta_spf_remove_arcs(g, costs, alive, removed, dist, 5, scratch), 5);
}

// ---------------------------------------------------------------------------
// delta_spf_update_arcs: generalizes removal to arbitrary cost changes; the
// same bit-for-bit contract against a from-scratch Dijkstra, for increases,
// decreases, removals-as-masks, ties, no-ops and the abort path.
// ---------------------------------------------------------------------------

/// Byte-compares the delta update against a full Dijkstra for every
/// destination when link `l`'s weight changes from its value in `costs` to
/// `new_weight`.
void expect_update_matches_full(const Graph& g, std::span<const double> costs,
                                LinkId l, double new_weight) {
  std::vector<double> new_costs(costs.begin(), costs.end());
  std::vector<ArcCostDelta> changes;
  for (ArcId a : g.link_arcs(l)) {
    changes.push_back({a, costs[a]});
    new_costs[a] = new_weight;
  }
  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    shortest_distances_to(g, t, costs, {}, base);
    delta = base;
    ASSERT_GE(delta_spf_update_arcs(g, new_costs, {}, changes, delta, g.num_nodes(),
                                    scratch),
              0);
    shortest_distances_to(g, t, new_costs, {}, full);
    ASSERT_EQ(delta, full) << "link " << l << " -> " << new_weight << " dest " << t;
  }
}

TEST(DeltaSpfUpdateTest, CostDecreaseCreatesNewShortestPaths) {
  // Dropping any link to weight 1 pulls shortest paths through it: the
  // improvement front must propagate exactly like a fresh Dijkstra.
  for (const std::uint64_t seed : {4ull, 11ull, 29ull}) {
    const Graph g = make_rand_topo({14, 4.0, 500.0, seed});
    const std::vector<double> costs = weight_costs(g, 20, seed + 7);
    for (LinkId l = 0; l < g.num_links(); ++l)
      expect_update_matches_full(g, costs, l, 1.0);
  }
}

TEST(DeltaSpfUpdateTest, CostIncreaseRedirectsPaths) {
  for (const std::uint64_t seed : {6ull, 17ull}) {
    const Graph g = make_rand_topo({14, 4.0, 500.0, seed});
    const std::vector<double> costs = weight_costs(g, 20, seed + 3);
    for (LinkId l = 0; l < g.num_links(); ++l)
      expect_update_matches_full(g, costs, l, 75.0);
  }
}

TEST(DeltaSpfUpdateTest, IncreaseToDeadArcDisconnectsDestination) {
  // Path graph: treating a bridge as removed (dead in the alive mask, its old
  // cost in the change list) must drive the severed side to infinity.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 100.0, 1.0);
  const std::vector<double> costs = weight_costs(g, 7, 13);
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  std::vector<ArcCostDelta> changes;
  for (ArcId a : g.link_arcs(2)) {  // bridge between {0,1,2} and {3,4,5}
    alive[a] = 0;
    changes.push_back({a, costs[a]});
  }
  DeltaSpfScratch scratch;
  std::vector<double> base, delta, full;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    shortest_distances_to(g, t, costs, {}, base);
    delta = base;
    ASSERT_GE(
        delta_spf_update_arcs(g, costs, alive, changes, delta, g.num_nodes(), scratch),
        0);
    shortest_distances_to(g, t, costs, alive, full);
    ASSERT_EQ(delta, full) << "dest " << t;
    // The far side really is unreachable now.
    if (t >= 3) {
      EXPECT_EQ(delta[0], kInfDist);
    }
  }
}

TEST(DeltaSpfUpdateTest, EqualCostTieChurnKeepsLabelsBitIdentical) {
  // Diamond 0-1-3 / 0-2-3, all weight 1: both two-hop paths tie. Breaking
  // the tie (increase one side) or re-creating it (decrease back) never
  // changes any label — the update must report zero affected nodes and
  // leave every byte alone, matching the full recompute.
  const Graph g = test::make_diamond();
  std::vector<double> even(g.num_arcs(), 1.0);

  // Increase off the tie: link 0 (0-1) from 1 to 2; labels to dest 3 keep
  // their values (0 still reaches 3 at cost 2 via node 2).
  {
    std::vector<double> new_costs = even;
    std::vector<ArcCostDelta> changes;
    for (ArcId a : g.link_arcs(0)) {
      changes.push_back({a, 1.0});
      new_costs[a] = 2.0;
    }
    DeltaSpfScratch scratch;
    std::vector<double> base, delta, full;
    shortest_distances_to(g, 3, even, {}, base);
    delta = base;
    EXPECT_EQ(delta_spf_update_arcs(g, new_costs, {}, changes, delta, g.num_nodes(),
                                    scratch),
              0);
    shortest_distances_to(g, 3, new_costs, {}, full);
    ASSERT_EQ(delta, full);
    ASSERT_EQ(delta, base);
  }

  // Decrease onto the tie: starting from the broken-tie costs, lower the
  // link back to 1 — the improved arc only matches (never beats) the other
  // path, so again zero affected nodes.
  {
    std::vector<double> old_costs = even;
    for (ArcId a : g.link_arcs(0)) old_costs[a] = 2.0;
    std::vector<ArcCostDelta> changes;
    for (ArcId a : g.link_arcs(0)) changes.push_back({a, 2.0});
    DeltaSpfScratch scratch;
    std::vector<double> base, delta, full;
    shortest_distances_to(g, 3, old_costs, {}, base);
    delta = base;
    EXPECT_EQ(delta_spf_update_arcs(g, even, {}, changes, delta, g.num_nodes(), scratch),
              0);
    shortest_distances_to(g, 3, even, {}, full);
    ASSERT_EQ(delta, full);
    ASSERT_EQ(delta, base);
  }
}

TEST(DeltaSpfUpdateTest, NoOpDeltaReturnsZero) {
  const Graph g = test::make_ring_with_chords(10);
  const std::vector<double> costs = weight_costs(g, 9, 21);
  DeltaSpfScratch scratch;
  std::vector<double> dist, expect;
  shortest_distances_to(g, 6, costs, {}, dist);
  expect = dist;
  // Empty change list.
  EXPECT_EQ(delta_spf_update_arcs(g, costs, {}, {}, dist, g.num_nodes(), scratch), 0);
  EXPECT_EQ(dist, expect);
  // Changes whose old cost equals the new cost.
  std::vector<ArcCostDelta> noop;
  for (ArcId a : g.link_arcs(3)) noop.push_back({a, costs[a]});
  EXPECT_EQ(delta_spf_update_arcs(g, costs, {}, noop, dist, g.num_nodes(), scratch), 0);
  EXPECT_EQ(dist, expect);
}

TEST(DeltaSpfUpdateTest, AbortThresholdRestoresDistOnDecrease) {
  // Path 0-1-2-3-4-5 with weight 10, destination 5: dropping link 4-5 to 1
  // improves every other node's label (5 affected). A cap of 2 must abort
  // with dist byte-identical to the input; a cap of 5 must succeed.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 100.0, 1.0);
  std::vector<double> costs(g.num_arcs(), 10.0);
  std::vector<double> new_costs = costs;
  std::vector<ArcCostDelta> changes;
  for (ArcId a : g.link_arcs(4)) {
    changes.push_back({a, 10.0});
    new_costs[a] = 1.0;
  }
  DeltaSpfScratch scratch;
  std::vector<double> base, dist, full;
  shortest_distances_to(g, 5, costs, {}, base);
  dist = base;
  EXPECT_EQ(delta_spf_update_arcs(g, new_costs, {}, changes, dist, 2, scratch), -1);
  EXPECT_EQ(dist, base);
  dist = base;
  EXPECT_EQ(delta_spf_update_arcs(g, new_costs, {}, changes, dist, 5, scratch), 5);
  shortest_distances_to(g, 5, new_costs, {}, full);
  EXPECT_EQ(dist, full);
}

TEST(DeltaSpfUpdateTest, AbortThresholdRestoresDistOnIncrease) {
  // Same path, destination 5, raising link 4-5 to 100: every node upstream
  // of the change re-labels through the (only) path, so phase 1 floods and
  // a small cap must abort with dist untouched.
  Graph g(6);
  for (NodeId u = 0; u + 1 < 6; ++u) g.add_link(u, u + 1, 100.0, 1.0);
  std::vector<double> costs(g.num_arcs(), 10.0);
  std::vector<double> new_costs = costs;
  std::vector<ArcCostDelta> changes;
  for (ArcId a : g.link_arcs(4)) {
    changes.push_back({a, 10.0});
    new_costs[a] = 100.0;
  }
  DeltaSpfScratch scratch;
  std::vector<double> base, dist, full;
  shortest_distances_to(g, 5, costs, {}, base);
  dist = base;
  EXPECT_EQ(delta_spf_update_arcs(g, new_costs, {}, changes, dist, 2, scratch), -1);
  EXPECT_EQ(dist, base);
  dist = base;
  EXPECT_EQ(delta_spf_update_arcs(g, new_costs, {}, changes, dist, 5, scratch), 5);
  shortest_distances_to(g, 5, new_costs, {}, full);
  EXPECT_EQ(dist, full);
}

TEST(DeltaSpfUpdateTest, MixedMultiLinkChangesMatchFullRecompute) {
  // One increase and one decrease in the same change list exercise both
  // phases together on every destination.
  const Graph g = make_rand_topo({16, 4.0, 500.0, 31});
  const std::vector<double> costs = weight_costs(g, 20, 77);
  for (LinkId l1 = 0; l1 + 1 < g.num_links(); l1 += 4) {
    const LinkId l2 = l1 + 1;
    std::vector<double> new_costs = costs;
    std::vector<ArcCostDelta> changes;
    for (ArcId a : g.link_arcs(l1)) {
      changes.push_back({a, costs[a]});
      new_costs[a] = costs[a] + 40.0;
    }
    for (ArcId a : g.link_arcs(l2)) {
      changes.push_back({a, costs[a]});
      new_costs[a] = 1.0;
    }
    DeltaSpfScratch scratch;
    std::vector<double> base, delta, full;
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      shortest_distances_to(g, t, costs, {}, base);
      delta = base;
      ASSERT_GE(delta_spf_update_arcs(g, new_costs, {}, changes, delta, g.num_nodes(),
                                      scratch),
                0);
      shortest_distances_to(g, t, new_costs, {}, full);
      ASSERT_EQ(delta, full) << "links " << l1 << "/" << l2 << " dest " << t;
    }
  }
}

}  // namespace
}  // namespace dtr
