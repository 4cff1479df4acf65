#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/connectivity.h"
#include "graph/isp.h"
#include "graph/spf.h"
#include "graph/topology.h"

namespace dtr {
namespace {

// ------------------------------------------------ parameterized generators

struct GenCase {
  const char* name;
  int nodes;
  double degree;
};

class SynthTopoTest : public ::testing::TestWithParam<std::tuple<GenCase, int>> {
 protected:
  Graph build(bool near) const {
    const auto& [c, seed] = GetParam();
    SynthTopoParams p{c.nodes, c.degree, 500.0, static_cast<std::uint64_t>(seed)};
    return near ? make_near_topo(p) : make_rand_topo(p);
  }
};

TEST_P(SynthTopoTest, RandTopoBasicInvariants) {
  const auto& [c, seed] = GetParam();
  const Graph g = build(false);
  EXPECT_EQ(g.num_nodes(), static_cast<std::size_t>(c.nodes));
  // Target link count reached (+/- nothing: rand topo hits it exactly unless
  // the complete graph is smaller).
  const auto target = static_cast<std::size_t>(std::lround(c.degree * c.nodes / 2.0));
  EXPECT_GE(g.num_links(), std::min<std::size_t>(target, g.num_nodes()));
  EXPECT_TRUE(is_two_edge_connected(g));
  EXPECT_EQ(g.num_arcs(), 2 * g.num_links());
  (void)seed;
}

TEST_P(SynthTopoTest, NearTopoBasicInvariants) {
  const auto& [c, seed] = GetParam();
  const Graph g = build(true);
  EXPECT_EQ(g.num_nodes(), static_cast<std::size_t>(c.nodes));
  EXPECT_TRUE(is_two_edge_connected(g));
  (void)seed;
}

TEST_P(SynthTopoTest, PositionsInsideUnitSquare) {
  const Graph g = build(false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(g.position(u).x, 0.0);
    EXPECT_LE(g.position(u).x, 1.0);
    EXPECT_GE(g.position(u).y, 0.0);
    EXPECT_LE(g.position(u).y, 1.0);
  }
}

TEST_P(SynthTopoTest, DelaysArePositive) {
  const Graph g = build(false);
  for (const Arc& a : g.arcs()) EXPECT_GT(a.prop_delay_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SynthTopoTest,
    ::testing::Combine(::testing::Values(GenCase{"small", 10, 4.0},
                                         GenCase{"paper30", 30, 6.0},
                                         GenCase{"dense", 15, 6.0}),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ specific generator facts

TEST(RandTopoTest, PaperSizeHasExactLinkCount) {
  const Graph g = make_rand_topo({30, 6.0, 500.0, 11});
  EXPECT_EQ(g.num_links(), 90u);   // "30 nodes, 180 links" = 180 arcs
  EXPECT_EQ(g.num_arcs(), 180u);
}

TEST(RandTopoTest, DeterministicForSeed) {
  const Graph a = make_rand_topo({12, 4.0, 500.0, 5});
  const Graph b = make_rand_topo({12, 4.0, 500.0, 5});
  ASSERT_EQ(a.num_links(), b.num_links());
  for (ArcId i = 0; i < a.num_arcs(); ++i) {
    EXPECT_EQ(a.arc(i).src, b.arc(i).src);
    EXPECT_EQ(a.arc(i).dst, b.arc(i).dst);
  }
}

TEST(RandTopoTest, DifferentSeedsDiffer) {
  const Graph a = make_rand_topo({12, 4.0, 500.0, 5});
  const Graph b = make_rand_topo({12, 4.0, 500.0, 6});
  bool differs = a.num_links() != b.num_links();
  for (ArcId i = 0; !differs && i < a.num_arcs(); ++i)
    differs = a.arc(i).src != b.arc(i).src || a.arc(i).dst != b.arc(i).dst;
  EXPECT_TRUE(differs);
}

TEST(RandTopoTest, RejectsBadParameters) {
  EXPECT_THROW(make_rand_topo({2, 4.0, 500.0, 1}), std::invalid_argument);
  EXPECT_THROW(make_rand_topo({10, 1.0, 500.0, 1}), std::invalid_argument);
}

TEST(RandTopoTest, RejectsNanDegree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(make_rand_topo({10, nan, 500.0, 1}), std::invalid_argument);
  EXPECT_THROW(make_near_topo({10, nan, 500.0, 1}), std::invalid_argument);
}

TEST(RandTopoTest, RejectsDegreeAboveCompleteGraph) {
  // 8 nodes: degree 7 is the complete graph, anything above is unreachable.
  EXPECT_THROW(make_rand_topo({8, 50.0, 500.0, 1}), std::invalid_argument);
  EXPECT_THROW(make_rand_topo({8, 7.5, 500.0, 1}), std::invalid_argument);
  EXPECT_THROW(make_near_topo({8, 50.0, 500.0, 1}), std::invalid_argument);
  const Graph complete = make_rand_topo({8, 7.0, 500.0, 1});
  EXPECT_EQ(complete.num_links(), 28u);
}

TEST(NearTopoTest, HasLowerPathDiversityThanRandTopo) {
  // The paper's core observation about NearTopo: nearest-neighbor wiring
  // produces longer shortest paths (hops) than a random graph of equal size.
  const SynthTopoParams p{30, 6.0, 500.0, 17};
  const Graph rand_g = make_rand_topo(p);
  const Graph near_g = make_near_topo(p);
  auto mean_hops = [](const Graph& g) {
    std::vector<double> unit(g.num_arcs(), 1.0);
    const auto d = all_pairs_distances_to(g, unit);
    double sum = 0.0;
    int count = 0;
    for (NodeId t = 0; t < g.num_nodes(); ++t)
      for (NodeId u = 0; u < g.num_nodes(); ++u)
        if (u != t) {
          sum += d[t][u];
          ++count;
        }
    return sum / count;
  };
  EXPECT_GT(mean_hops(near_g), mean_hops(rand_g));
}

TEST(PlTopoTest, PaperSizeHasExpectedLinkCount) {
  const Graph g = make_pl_topo({30, 3, 500.0, 7});
  // m*(n-m) = 3*27 = 81 links (162 arcs) unless 2-edge augmentation added a
  // couple: the paper's "PLTopo [30,162]".
  EXPECT_GE(g.num_links(), 81u);
  EXPECT_LE(g.num_links(), 84u);
  EXPECT_TRUE(is_two_edge_connected(g));
}

TEST(PlTopoTest, DegreeDistributionIsSkewed) {
  const Graph g = make_pl_topo({60, 2, 500.0, 3});
  std::size_t max_degree = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    max_degree = std::max(max_degree, g.link_degree(u));
  // Preferential attachment grows hubs: max degree far above the mean (~4).
  EXPECT_GE(max_degree, 8u);
}

TEST(PlTopoTest, RejectsBadParameters) {
  EXPECT_THROW(make_pl_topo({3, 3, 500.0, 1}), std::invalid_argument);
  EXPECT_THROW(make_pl_topo({10, 1, 500.0, 1}), std::invalid_argument);
}

TEST(TopologyLimitTest, GeneratorsRejectMoreThanTheLargestTier) {
  // Rejected before any node is placed: 2e9 routers must fail fast, not
  // allocate.
  for (const int n : {kMaxTopologyNodes + 1, 2000000000}) {
    EXPECT_THROW(make_rand_topo({n, 3.0, 500.0, 1}), std::invalid_argument);
    EXPECT_THROW(make_near_topo({n, 3.0, 500.0, 1}), std::invalid_argument);
    EXPECT_THROW(make_pl_topo({n, 3, 500.0, 1}), std::invalid_argument);
  }
  EXPECT_NO_THROW(check_node_limit(kMaxTopologyNodes));
}

// ------------------------------------------------ delays and calibration

TEST(DelayTest, SetDelaysFromPositionsUsesDistance) {
  Graph g(2);
  g.set_position(0, {0.0, 0.0});
  g.set_position(1, {0.3, 0.4});
  g.add_link(0, 1, 100.0, 1.0);
  set_delays_from_positions(g, 10.0);
  EXPECT_NEAR(g.arc(0).prop_delay_ms, 5.0, 1e-9);
}

TEST(DelayTest, CalibrationHitsTargetDiameter) {
  Graph g = make_rand_topo({20, 4.0, 500.0, 9});
  calibrate_delays_to_sla(g, 25.0, 0.85);
  EXPECT_NEAR(propagation_diameter_ms(g), 0.85 * 25.0, 1e-6);
}

TEST(DelayTest, CalibrationValidation) {
  Graph g = make_rand_topo({10, 4.0, 500.0, 9});
  EXPECT_THROW(calibrate_delays_to_sla(g, -5.0), std::invalid_argument);
}

// ------------------------------------------------ ISP backbone

TEST(IspTest, MatchesPaperDimensions) {
  const IspTopology isp = make_isp_backbone();
  EXPECT_EQ(isp.graph.num_nodes(), 16u);
  EXPECT_EQ(isp.graph.num_arcs(), 70u);  // "16 nodes and 70 links"
  EXPECT_EQ(isp.graph.num_links(), 35u);
  EXPECT_EQ(isp.city_names.size(), 16u);
}

TEST(IspTest, IsTwoEdgeConnected) {
  const IspTopology isp = make_isp_backbone();
  EXPECT_TRUE(is_two_edge_connected(isp.graph));
}

TEST(IspTest, DelaysInPaperRange) {
  const IspTopology isp = make_isp_backbone();
  for (const Arc& a : isp.graph.arcs()) {
    EXPECT_GT(a.prop_delay_ms, 0.5);
    EXPECT_LT(a.prop_delay_ms, 21.0);  // "roughly from 5ms to 20ms"
  }
  // Longest single link should be a true long-haul hop (>10 ms).
  double max_delay = 0.0;
  for (const Arc& a : isp.graph.arcs()) max_delay = std::max(max_delay, a.prop_delay_ms);
  EXPECT_GT(max_delay, 10.0);
}

TEST(IspTest, CoastToCoastNearSlaBound) {
  // theta = 25ms approximates US coast-to-coast: the propagation diameter
  // should be tight against but below that bound.
  const IspTopology isp = make_isp_backbone();
  const double diameter = propagation_diameter_ms(isp.graph);
  EXPECT_GT(diameter, 15.0);
  EXPECT_LT(diameter, 25.0);
}

TEST(IspTest, CapacityParameterRespected) {
  const IspTopology isp = make_isp_backbone(1234.0);
  for (const Arc& a : isp.graph.arcs()) EXPECT_DOUBLE_EQ(a.capacity, 1234.0);
}

}  // namespace
}  // namespace dtr
