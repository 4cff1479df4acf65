#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "graph/spf.h"
#include "graph/topology.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "routing/weights.h"
#include "reference_delay_dp.h"
#include "test_helpers.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace dtr {
namespace {

// ------------------------------------------------------------ weights

TEST(WeightSettingTest, InitialValue) {
  const WeightSetting w(5, 3);
  for (LinkId l = 0; l < 5; ++l)
    for (TrafficClass c : kBothClasses) EXPECT_EQ(w.get(c, l), 3);
}

TEST(WeightSettingTest, SetPerClassIndependent) {
  WeightSetting w(3);
  w.set(TrafficClass::kDelay, 1, 7);
  w.set(TrafficClass::kThroughput, 1, 9);
  EXPECT_EQ(w.get(TrafficClass::kDelay, 1), 7);
  EXPECT_EQ(w.get(TrafficClass::kThroughput, 1), 9);
  EXPECT_EQ(w.get(TrafficClass::kDelay, 0), 1);
}

TEST(WeightSettingTest, RejectsNonPositiveWeights) {
  WeightSetting w(2);
  EXPECT_THROW(w.set(TrafficClass::kDelay, 0, 0), std::invalid_argument);
  EXPECT_THROW(WeightSetting(2, 0), std::invalid_argument);
}

TEST(WeightSettingTest, ArcCostsShareLinkWeight) {
  const Graph g = test::make_diamond();
  WeightSetting w(g.num_links());
  w.set(TrafficClass::kDelay, 2, 11);
  std::vector<double> costs;
  w.arc_costs(g, TrafficClass::kDelay, costs);
  ASSERT_EQ(costs.size(), g.num_arcs());
  for (ArcId a : g.link_arcs(2)) EXPECT_DOUBLE_EQ(costs[a], 11.0);
  for (ArcId a : g.link_arcs(0)) EXPECT_DOUBLE_EQ(costs[a], 1.0);
}

TEST(WeightSettingTest, ArcCostsSizeMismatchThrows) {
  const Graph g = test::make_diamond();
  WeightSetting w(2);  // wrong size
  std::vector<double> costs;
  EXPECT_THROW(w.arc_costs(g, TrafficClass::kDelay, costs), std::invalid_argument);
}

TEST(WeightSettingTest, EqualityComparison) {
  WeightSetting a(3), b(3);
  EXPECT_EQ(a, b);
  b.set(TrafficClass::kDelay, 0, 5);
  EXPECT_NE(a, b);
}

TEST(WeightSettingTest, RandomizeStaysInRange) {
  WeightSetting w(20);
  Rng rng(5);
  randomize_weights(w, 64, rng);
  for (LinkId l = 0; l < 20; ++l)
    for (TrafficClass c : kBothClasses) {
      EXPECT_GE(w.get(c, l), 1);
      EXPECT_LE(w.get(c, l), 64);
    }
}

TEST(WeightSettingTest, WarmStartTracksDelay) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 2.0);
  g.add_link(1, 2, 100.0, 20.0);
  const WeightSetting w = make_warm_start(g, 100);
  EXPECT_LT(w.get(TrafficClass::kDelay, 0), w.get(TrafficClass::kDelay, 1));
  EXPECT_EQ(w.get(TrafficClass::kThroughput, 0), 1);
  EXPECT_LE(w.get(TrafficClass::kDelay, 1), 100);
}

// ------------------------------------------------------------ routing / loads

TEST(ClassRoutingTest, SinglePathCarriesFullDemand) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 10.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  // Arc 0 is 0->1, arc 2 is 1->2.
  EXPECT_DOUBLE_EQ(r.arc_load(0), 10.0);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 10.0);
  EXPECT_DOUBLE_EQ(r.arc_load(1), 0.0);  // reverse arcs unused
}

TEST(ClassRoutingTest, EcmpSplitsEvenly) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  // Two equal paths 0-1-3 and 0-2-3: 4 units each.
  EXPECT_DOUBLE_EQ(r.arc_load(0), 4.0);  // 0->1
  EXPECT_DOUBLE_EQ(r.arc_load(2), 4.0);  // 0->2
  EXPECT_DOUBLE_EQ(r.arc_load(4), 4.0);  // 1->3
  EXPECT_DOUBLE_EQ(r.arc_load(6), 4.0);  // 2->3
}

TEST(ClassRoutingTest, WeightsSteerTraffic) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  WeightSetting w(g.num_links());
  w.set(TrafficClass::kDelay, 0, 10);  // make 0-1 expensive
  std::vector<double> costs;
  w.arc_costs(g, TrafficClass::kDelay, costs);
  const ClassRouting r(g, costs, tm, {});
  EXPECT_DOUBLE_EQ(r.arc_load(0), 0.0);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 8.0);  // all via 0-2-3
}

TEST(ClassRoutingTest, FlowConservationProperty) {
  // Property: at every node, inflow + sourced == outflow + sunk (per class).
  for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const Graph g = make_rand_topo({14, 4.0, 500.0, seed});
    const TrafficMatrix tm = make_gravity_traffic(g, {3.0, 1.0, seed + 1});
    WeightSetting w(g.num_links());
    Rng rng(seed);
    randomize_weights(w, 50, rng);
    std::vector<double> costs;
    w.arc_costs(g, TrafficClass::kDelay, costs);
    const ClassRouting r(g, costs, tm, {});

    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      double in = 0.0, out = 0.0, sourced = 0.0, sunk = 0.0;
      for (ArcId a : g.in_arcs(u)) in += r.arc_load(a);
      for (ArcId a : g.out_arcs(u)) out += r.arc_load(a);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == u) continue;
        sourced += tm.at(u, v);
        sunk += tm.at(v, u);
      }
      EXPECT_NEAR(in + sourced, out + sunk, 1e-6) << "node " << u << " seed " << seed;
    }
  }
}

TEST(ClassRoutingTest, TotalLoadEqualsDemandTimesPathLength) {
  // Sum of arc loads == sum over demands of (demand * SP length in hops)
  // under unit weights (ECMP paths all have equal length).
  const Graph g = make_rand_topo({12, 4.0, 500.0, 3});
  const TrafficMatrix tm = make_gravity_traffic(g, {2.0, 1.0, 4});
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  double load_sum = 0.0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) load_sum += r.arc_load(a);
  double expected = 0.0;
  tm.for_each_demand(
      [&](NodeId s, NodeId t, double v) { expected += v * r.distances()[t][s]; });
  EXPECT_NEAR(load_sum, expected, 1e-6);
}

TEST(ClassRoutingTest, DisconnectedDemandCounted) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 5.0);  // node 2 unreachable
  tm.set(0, 1, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  EXPECT_EQ(r.disconnected_demand_count(), 1u);
  EXPECT_DOUBLE_EQ(r.disconnected_demand_volume(), 5.0);
  EXPECT_FALSE(r.pair_connected(0, 2));
  EXPECT_TRUE(r.pair_connected(0, 1));
}

TEST(ClassRoutingTest, SkipNodeIgnoresItsTraffic) {
  const Graph g = test::make_ring(4);
  TrafficMatrix tm(4);
  tm.set(0, 2, 10.0);
  tm.set(1, 2, 4.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const NodeId skip[] = {1};
  const ClassRouting r(g, costs, tm, {}, skip);
  double total = 0.0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) total += r.arc_load(a);
  // Only the 0->2 demand routes (2 hops around the ring either way).
  EXPECT_NEAR(total, 10.0 * 2.0, 1e-9);
}

TEST(ClassRoutingTest, AliveMaskReroutes) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 8.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  std::vector<std::uint8_t> alive(g.num_arcs(), 1);
  for (ArcId a : g.link_arcs(0)) alive[a] = 0;  // fail 0-1
  const ClassRouting r(g, costs, tm, alive);
  EXPECT_DOUBLE_EQ(r.arc_load(2), 8.0);
  EXPECT_DOUBLE_EQ(r.arc_load(0), 0.0);
}

// ------------------------------------------------------------ sweep order rule

/// The Fortz–Thorup push sweep written out plainly: per destination, sort
/// the reachable nodes by decreasing distance, ties by decreasing node id
/// (the documented order rule; `ids_descending = false` flips the tie break),
/// and split each node's flow evenly over its tight out-arcs.
std::vector<double> reference_push_sweep(const Graph& g, std::span<const double> costs,
                                         const TrafficMatrix& tm, bool ids_descending) {
  const std::size_t n = g.num_nodes();
  std::vector<double> loads(g.num_arcs(), 0.0), dist, flow;
  std::vector<NodeId> order;
  for (NodeId t = 0; t < n; ++t) {
    shortest_distances_to(g, t, costs, {}, dist);
    flow.assign(n, 0.0);
    order.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (u == t || dist[u] == kInfDist) continue;
      order.push_back(u);
      if (tm.at(u, t) > 0.0) flow[u] = tm.at(u, t);
    }
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      if (dist[a] != dist[b]) return dist[a] > dist[b];
      return ids_descending ? a > b : a < b;
    });
    for (NodeId u : order) {
      if (flow[u] <= 0.0) continue;
      std::vector<ArcId> tight;
      for (ArcId a : g.out_arcs(u))
        if (arc_is_tight(g.arc(a), costs[a], dist)) tight.push_back(a);
      const double share = flow[u] / static_cast<double>(tight.size());
      for (ArcId a : tight) {
        loads[a] += share;
        flow[g.arc(a).dst] += share;
      }
    }
  }
  return loads;
}

bool load_bytes_equal(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(SweepOrderTest, EqualDistanceNodesFeedTheirSuccessorInDecreasingIdOrder) {
  // Nodes 2 and 3 are both 2 hops from t = 0 and both feed node 1. Node 1's
  // inflow sums (1 + 1e16) + 1 == 1e16 when 3 goes first, but (1 + 1) + 1e16
  // == 1e16 + 2 when 2 does: the tie order is visible in the bytes.
  Graph g(4);
  g.add_link(1, 0, 100.0, 1.0);  // arc 0: 1 -> 0
  g.add_link(2, 1, 100.0, 1.0);  // arc 2: 2 -> 1
  g.add_link(3, 1, 100.0, 1.0);  // arc 4: 3 -> 1
  TrafficMatrix tm(4);
  tm.set(1, 0, 1.0);
  tm.set(2, 0, 1.0);
  tm.set(3, 0, 1e16);
  const std::vector<double> costs(g.num_arcs(), 1.0);

  const std::vector<double> want = reference_push_sweep(g, costs, tm, true);
  ASSERT_FALSE(load_bytes_equal(want, reference_push_sweep(g, costs, tm, false)));
  EXPECT_EQ(want[0], 1e16);
  const ClassRouting r(g, costs, tm, {});
  EXPECT_TRUE(load_bytes_equal(r.arc_loads(), want));
}

TEST(SweepOrderTest, EveryLoadPathMatchesTheReferenceOnMinHopGraphs) {
  // Unit costs on dense random graphs tie most distances. compute() takes its
  // order from Dijkstra; record_contributions sweeps the routing's stored
  // order rows and must write the record an eager compute writes, and a
  // failure patched from that lazy base must match a full compute; a weight
  // delta back to unit costs merges the relabelled nodes into its donor's
  // order row.
  for (const std::uint64_t seed : {4ull, 8ull}) {
    const Graph g = make_rand_topo({16, 5.0, 500.0, seed});
    const TrafficMatrix tm = make_gravity_traffic(g, {3.0, 1.0, seed + 1});
    const std::vector<double> costs(g.num_arcs(), 1.0);
    const std::vector<double> want = reference_push_sweep(g, costs, tm, true);

    ClassRouting eager;
    RoutingBaseRecord eager_record;
    eager.compute(g, costs, tm, {}, {}, &eager_record);
    EXPECT_TRUE(load_bytes_equal(eager.arc_loads(), want));

    const ClassRouting lazy(g, costs, tm, {});
    RoutingBaseRecord lazy_record;
    lazy.record_contributions(g, costs, tm, {}, {}, lazy_record);
    const auto rows_equal = [](const auto& x, const auto& y) {
      return x.size() == y.size() &&
             (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
    };
    EXPECT_TRUE(rows_equal(lazy_record.contrib_offset, eager_record.contrib_offset));
    EXPECT_TRUE(rows_equal(lazy_record.contrib_arc, eager_record.contrib_arc));
    EXPECT_TRUE(rows_equal(lazy_record.contrib_val, eager_record.contrib_val));
    EXPECT_TRUE(rows_equal(lazy_record.disconnected, eager_record.disconnected));
    EXPECT_TRUE(rows_equal(lazy_record.disconnected_volume, eager_record.disconnected_volume));

    const std::span<const ArcId> removed = g.link_arcs(1);
    std::vector<std::uint8_t> failed_alive(g.num_arcs(), 1);
    for (ArcId a : removed) failed_alive[a] = 0;
    const ClassRouting failed_full(g, costs, tm, failed_alive);
    FailureScratch lazy_scratch;
    ClassRouting from_lazy;
    from_lazy.compute_from_base(g, costs, tm, lazy, lazy_record, removed, failed_alive, 0.25,
                                lazy_scratch);
    EXPECT_TRUE(load_bytes_equal(from_lazy.arc_loads(), failed_full.arc_loads()));

    std::vector<double> donor_costs = costs;
    std::vector<ArcCostDelta> changes;
    for (ArcId a : g.link_arcs(0)) {
      donor_costs[a] = 3.0;
      changes.push_back({a, 3.0});
    }
    ClassRouting donor;
    RoutingBaseRecord record;
    donor.compute(g, donor_costs, tm, {}, {}, &record);
    FailureScratch scratch;
    ClassRouting patched;
    patched.compute_from_weight_delta(g, costs, tm, donor, record, changes, 1.0, scratch);
    EXPECT_TRUE(load_bytes_equal(patched.arc_loads(), want));
    EXPECT_GT(scratch.stats().dests_delta, 0u);
  }
}

// ------------------------------------------------------------ incremental patching

/// Patched routings must equal a full compute() bit for bit: loads and
/// labels compared as raw bytes (== would accept -0.0 vs 0.0).
void expect_routing_bytes_identical(const ClassRouting& got, const ClassRouting& want) {
  const auto bytes_equal = [](std::span<const double> x, std::span<const double> y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  EXPECT_TRUE(bytes_equal(got.arc_loads(), want.arc_loads()));
  ASSERT_EQ(got.distances().size(), want.distances().size());
  for (std::size_t t = 0; t < want.distances().size(); ++t)
    EXPECT_TRUE(bytes_equal(got.distances()[t], want.distances()[t])) << "destination " << t;
  EXPECT_EQ(got.disconnected_demand_count(), want.disconnected_demand_count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.disconnected_demand_volume()),
            std::bit_cast<std::uint64_t>(want.disconnected_demand_volume()));
}

TEST(IncrementalRoutingTest, FallbackFractionNeverChangesBytes) {
  // Any delta-SPF fallback threshold — never-delta (0.0), the evaluator's
  // default, always-delta (1.0) — must reproduce compute() under every
  // single-link failure.
  const test::TestInstance inst = test::make_test_instance(12, 4.0, 29);
  const Graph& g = inst.graph;
  std::vector<double> costs;
  test::random_weights(g, 30, 41).arc_costs(g, TrafficClass::kThroughput, costs);
  ClassRouting base;
  RoutingBaseRecord record;
  base.compute(g, costs, inst.traffic.throughput, {}, {}, &record);

  FailureScratch scratch;
  ClassRouting patched, reference;
  std::vector<std::uint8_t> mask;
  for (const FailureScenario& scenario : all_link_failures(g)) {
    build_alive_mask(g, scenario, mask);
    const std::span<const ArcId> removed = g.link_arcs(scenario.id);
    reference.compute(g, costs, inst.traffic.throughput, mask);
    for (const double fraction : {0.0, 0.25, 1.0}) {
      patched.compute_from_base(g, costs, inst.traffic.throughput, base, record, removed,
                                mask, fraction, scratch);
      expect_routing_bytes_identical(patched, reference);
    }
  }
  EXPECT_GT(scratch.stats().dests_delta, 0u);
  EXPECT_GT(scratch.stats().dests_full_fallback, 0u);
}

TEST(IncrementalRoutingTest, WeightDeltaHandlesMultiLinkChanges) {
  // A change list spanning three links (increases and decreases, both arcs
  // of each) must reproduce compute() under the new costs.
  const test::TestInstance inst = test::make_test_instance(12, 4.0, 23);
  const Graph& g = inst.graph;
  const WeightSetting old_w = test::random_weights(g, 20, 5);
  WeightSetting new_w = old_w;
  for (const LinkId l : {LinkId{1}, LinkId{4}, LinkId{7}})
    new_w.set(TrafficClass::kDelay, l, old_w.get(TrafficClass::kDelay, l) >= 10 ? 3 : 19);
  std::vector<double> old_costs, new_costs;
  old_w.arc_costs(g, TrafficClass::kDelay, old_costs);
  new_w.arc_costs(g, TrafficClass::kDelay, new_costs);
  std::vector<ArcCostDelta> changes;
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    if (old_costs[a] != new_costs[a]) changes.push_back({a, old_costs[a]});
  ASSERT_EQ(changes.size(), 6u);

  ClassRouting base;
  RoutingBaseRecord record;
  base.compute(g, old_costs, inst.traffic.delay, {}, {}, &record);
  ClassRouting reference(g, new_costs, inst.traffic.delay, {});

  FailureScratch scratch;
  for (const double fraction : {0.0, 0.25, 1.0}) {
    ClassRouting patched;
    patched.compute_from_weight_delta(g, new_costs, inst.traffic.delay, base, record,
                                      changes, fraction, scratch);
    expect_routing_bytes_identical(patched, reference);
  }
  EXPECT_GT(scratch.stats().dests_delta, 0u);
}

// ------------------------------------------------------------ end-to-end delays

TEST(EndToEndDelayTest, SumsArcDelaysOnSinglePath) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 2.0);
  g.add_link(1, 2, 100.0, 3.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) arc_delay[a] = g.arc(a).prop_delay_ms;
  std::vector<double> out;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      out);
  EXPECT_DOUBLE_EQ(out[0 * 3 + 2], 5.0);
  EXPECT_DOUBLE_EQ(out[1 * 3 + 2], -1.0);  // no demand
}

TEST(EndToEndDelayTest, ExpectedVsWorstPath) {
  // Diamond with asymmetric delays: 0-1-3 takes 2ms, 0-2-3 takes 8ms.
  Graph g(4);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(0, 2, 100.0, 4.0);
  g.add_link(1, 3, 100.0, 1.0);
  g.add_link(2, 3, 100.0, 4.0);
  TrafficMatrix tm(4);
  tm.set(0, 3, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) arc_delay[a] = g.arc(a).prop_delay_ms;

  std::vector<double> expected, worst;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      expected);
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kWorstPath, {},
                      worst);
  EXPECT_DOUBLE_EQ(expected[3], 5.0);  // (2+8)/2
  EXPECT_DOUBLE_EQ(worst[3], 8.0);
}

TEST(EndToEndDelayTest, DisconnectedIsInfinite) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  TrafficMatrix tm(3);
  tm.set(0, 2, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tm, {});
  std::vector<double> arc_delay(g.num_arcs(), 1.0);
  std::vector<double> out;
  r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {},
                      out);
  EXPECT_EQ(out[0 * 3 + 2], kInfDist);
}

TEST(EndToEndDelayTest, MatchesSortedReferenceOnEveryRoutingPath) {
  // The DAG walk must reproduce the sorted-order DP bit for bit on routings
  // from every path that writes the DAG and order rows (compute with dead
  // arcs and skipped nodes, compute_from_base with and without the forced
  // full-Dijkstra fallback, compute_from_weight_delta, a failure patched from
  // the weight-delta routing), under dense and sparse demand and ECMP-heavy
  // weights. Incremental-vs-full checks cannot see a DP bug: both run it.
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int nodes = 9 + static_cast<int>(seed % 5);
    const test::TestInstance inst = test::make_test_instance(nodes, 3.5, seed);
    const Graph& g = inst.graph;
    Rng rng(seed * 7919);
    TrafficMatrix sparse(g.num_nodes());
    for (int i = 0; i < 4; ++i) {
      const auto s = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.uniform_index(g.num_nodes()));
      if (s != t) sparse.set(s, t, rng.uniform(0.5, 5.0));
    }
    for (const TrafficMatrix* demands : {&inst.traffic.delay, &std::as_const(sparse)}) {
      for (const int wmax : {2, 20}) {
        const std::vector<std::string> bad =
            test::delay_dp_mismatches(g, *demands, wmax, rng, checks);
        EXPECT_TRUE(bad.empty()) << "seed " << seed << " wmax " << wmax << ": " << bad.front();
      }
    }
  }
  EXPECT_EQ(checks, 12u * 2 * 2 * 12);
}

TEST(EndToEndDelayTest, NodesReachedOnlyByUnderflowedShares) {
  // The smallest denormal demand splits 50/50 at node 0 and both shares
  // round to zero, so the sweep never reaches nodes 1 and 2 with flow and
  // records no DAG bits for them. The DP must still walk their tight arcs.
  const Graph g = test::make_diamond();
  TrafficMatrix tiny(4);
  tiny.set(0, 3, std::numeric_limits<double>::denorm_min());
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const ClassRouting r(g, costs, tiny, {});
  EXPECT_EQ(r.arc_load(g.link_arcs(2)[0]), 0.0);  // 1 -> 3 carries nothing
  std::vector<double> arc_delay(g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) arc_delay[a] = 1.0 + a;
  for (const SlaDelayMode mode : {SlaDelayMode::kExpected, SlaDelayMode::kWorstPath}) {
    std::vector<double> got, want;
    r.end_to_end_delays(g, costs, {}, arc_delay, tiny, mode, {}, got);
    test::reference_end_to_end_delays(g, r, costs, {}, arc_delay, tiny, mode, {}, want);
    EXPECT_EQ(got, want);
    EXPECT_GT(got[0 * 4 + 3], arc_delay[0]);  // 0 -> 3 spans two arcs
  }
}

TEST(EndToEndDelayTest, RoutingWithoutDagThrowsLogicError) {
  const Graph g = test::make_diamond();
  TrafficMatrix tm(4);
  tm.set(0, 3, 1.0);
  const std::vector<double> costs(g.num_arcs(), 1.0);
  const std::vector<double> arc_delay(g.num_arcs(), 1.0);
  std::vector<double> out;
  const auto delays = [&](const ClassRouting& r) {
    r.end_to_end_delays(g, costs, {}, arc_delay, tm, SlaDelayMode::kExpected, {}, out);
  };
  EXPECT_THROW(delays(ClassRouting()), std::logic_error);

  // A routing of a different graph holds no DAG for this one.
  const Graph ring = test::make_ring(5);
  const std::vector<double> ring_costs(ring.num_arcs(), 1.0);
  EXPECT_THROW(delays(ClassRouting(ring, ring_costs, TrafficMatrix(5), {})), std::logic_error);
}

// ------------------------------------------------------------ failures

TEST(FailuresTest, EnumerationCounts) {
  const Graph g = test::make_diamond();
  EXPECT_EQ(all_link_failures(g).size(), g.num_links());
  EXPECT_EQ(all_node_failures(g).size(), g.num_nodes());
}

TEST(FailuresTest, LinkMaskKillsBothArcs) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::link(1), mask);
  int dead = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    if (!mask[a]) {
      ++dead;
      EXPECT_EQ(g.arc(a).link, 1u);
    }
  EXPECT_EQ(dead, 2);
}

TEST(FailuresTest, NodeMaskKillsIncidentArcs) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::node(0), mask);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const bool incident = g.arc(a).src == 0 || g.arc(a).dst == 0;
    EXPECT_EQ(mask[a] == 0, incident);
  }
}

TEST(FailuresTest, NoneMaskAllAlive) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::none(), mask);
  for (auto m : mask) EXPECT_EQ(m, 1);
}

TEST(FailuresTest, SkippedNodes) {
  const auto node = FailureScenario::node(3);
  ASSERT_EQ(skipped_nodes(node).size(), 1u);
  EXPECT_EQ(skipped_nodes(node)[0], 3u);
  EXPECT_TRUE(skipped_nodes(FailureScenario::link(3)).empty());
  EXPECT_TRUE(skipped_nodes(FailureScenario::none()).empty());
  EXPECT_TRUE(skipped_nodes(FailureScenario::compound({1, 2})).empty());
  const auto compound = FailureScenario::compound({0}, {5, 2, 5});
  ASSERT_EQ(skipped_nodes(compound).size(), 2u);  // canonical: sorted, deduped
  EXPECT_EQ(skipped_nodes(compound)[0], 2u);
  EXPECT_EQ(skipped_nodes(compound)[1], 5u);
  EXPECT_TRUE(is_skipped(skipped_nodes(compound), 5));
  EXPECT_FALSE(is_skipped(skipped_nodes(compound), 3));
}

TEST(FailuresTest, LinkPairMaskKillsBothLinks) {
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::compound({0, 2}), mask);
  int dead = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (mask[a]) continue;
    ++dead;
    EXPECT_TRUE(g.arc(a).link == 0 || g.arc(a).link == 2);
  }
  EXPECT_EQ(dead, 4);
}

TEST(FailuresTest, SampleKLinkFailuresValidation) {
  Graph g(2);
  g.add_link(0, 1, 100.0, 1.0);
  Rng rng(1);
  EXPECT_THROW(sample_k_link_failures(g, 2, 3, rng), std::invalid_argument);  // 1 link < k
  EXPECT_THROW(sample_k_link_failures(g, 0, 3, rng), std::invalid_argument);  // k < 1
}

TEST(FailuresTest, ToStringAndValidation) {
  EXPECT_EQ(to_string(FailureScenario::link(2)), "link#2");
  EXPECT_EQ(to_string(FailureScenario::node(7)), "node#7");
  EXPECT_EQ(to_string(FailureScenario::none()), "none");
  EXPECT_EQ(to_string(FailureScenario::compound({1, 3})), "links#1+3");
  const Graph g = test::make_diamond();
  std::vector<std::uint8_t> mask;
  EXPECT_THROW(build_alive_mask(g, FailureScenario::link(99), mask), std::out_of_range);
  EXPECT_THROW(build_alive_mask(g, FailureScenario::node(99), mask), std::out_of_range);
}

}  // namespace
}  // namespace dtr
