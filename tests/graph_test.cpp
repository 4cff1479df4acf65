#include <gtest/gtest.h>

#include <limits>

#include "graph/graph.h"
#include "test_helpers.h"

namespace dtr {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_EQ(g.num_links(), 0u);
}

TEST(GraphTest, ConstructorReservesNodes) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(GraphTest, AddNodeReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node({1.0, 2.0}), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.position(0).x, 1.0);
  EXPECT_EQ(g.position(0).y, 2.0);
}

TEST(GraphTest, AddLinkCreatesPairedArcs) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1, 500.0, 3.0);
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_EQ(g.num_links(), 1u);
  const auto arcs = g.link_arcs(l);
  ASSERT_EQ(arcs.size(), 2u);
  const Arc& fwd = g.arc(arcs[0]);
  const Arc& bwd = g.arc(arcs[1]);
  EXPECT_EQ(fwd.src, 0u);
  EXPECT_EQ(fwd.dst, 1u);
  EXPECT_EQ(bwd.src, 1u);
  EXPECT_EQ(bwd.dst, 0u);
  EXPECT_EQ(fwd.reverse, arcs[1]);
  EXPECT_EQ(bwd.reverse, arcs[0]);
  EXPECT_EQ(fwd.link, l);
  EXPECT_EQ(bwd.link, l);
  EXPECT_DOUBLE_EQ(fwd.capacity, 500.0);
  EXPECT_DOUBLE_EQ(bwd.prop_delay_ms, 3.0);
}

TEST(GraphTest, AdjacencyListsConsistent) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 100.0, 1.0);
  EXPECT_EQ(g.out_arcs(1).size(), 2u);
  EXPECT_EQ(g.in_arcs(1).size(), 2u);
  EXPECT_EQ(g.out_arcs(0).size(), 1u);
  for (ArcId a : g.out_arcs(1)) EXPECT_EQ(g.arc(a).src, 1u);
  for (ArcId a : g.in_arcs(1)) EXPECT_EQ(g.arc(a).dst, 1u);
}

TEST(GraphTest, AddArcIsOneDirectional) {
  Graph g(2);
  const ArcId a = g.add_arc(0, 1, 100.0, 1.0);
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_EQ(g.arc(a).reverse, kInvalidArc);
  EXPECT_TRUE(g.has_arc_between(0, 1));
  EXPECT_FALSE(g.has_arc_between(1, 0));
}

TEST(GraphTest, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 0, 100.0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_arc(1, 1, 100.0, 1.0), std::invalid_argument);
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 5, 100.0, 1.0), std::out_of_range);
}

TEST(GraphTest, RejectsNonPositiveCapacity) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, -5.0, 1.0), std::invalid_argument);
}

TEST(GraphTest, RejectsNegativeDelay) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 1, 100.0, -1.0), std::invalid_argument);
}

TEST(GraphTest, AddLinkRejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Graph g(2);
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(g.add_link(0, 1, 100.0, bad), std::invalid_argument) << bad;
    EXPECT_THROW(g.add_link(0, 1, bad, 1.0), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.num_links(), 0u);
}

TEST(GraphTest, AddArcRejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Graph g(2);
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(g.add_arc(0, 1, 100.0, bad), std::invalid_argument) << bad;
    EXPECT_THROW(g.add_arc(0, 1, bad, 1.0), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(GraphTest, SetLinkPropDelayRejectsNonFiniteValues) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1, 100.0, 4.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()})
    EXPECT_THROW(g.set_link_prop_delay(l, bad), std::invalid_argument) << bad;
  for (ArcId a : g.link_arcs(l)) EXPECT_DOUBLE_EQ(g.arc(a).prop_delay_ms, 4.0);
}

TEST(GraphTest, ParallelLinksAllowed) {
  Graph g(2);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(0, 1, 200.0, 2.0);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.out_arcs(0).size(), 2u);
}

TEST(GraphTest, LinkDegreeCountsIncidentLinks) {
  Graph g = test::make_diamond();
  EXPECT_EQ(g.link_degree(0), 2u);
  EXPECT_EQ(g.link_degree(3), 2u);
  EXPECT_DOUBLE_EQ(g.average_link_degree(), 2.0);
}

TEST(GraphTest, ScalePropDelays) {
  Graph g(2);
  g.add_link(0, 1, 100.0, 4.0);
  g.scale_prop_delays(2.5);
  EXPECT_DOUBLE_EQ(g.arc(0).prop_delay_ms, 10.0);
  EXPECT_DOUBLE_EQ(g.arc(1).prop_delay_ms, 10.0);
  EXPECT_THROW(g.scale_prop_delays(0.0), std::invalid_argument);
}

TEST(GraphTest, SetLinkPropDelay) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1, 100.0, 4.0);
  g.set_link_prop_delay(l, 7.0);
  for (ArcId a : g.link_arcs(l)) EXPECT_DOUBLE_EQ(g.arc(a).prop_delay_ms, 7.0);
  EXPECT_THROW(g.set_link_prop_delay(l, -1.0), std::invalid_argument);
}

TEST(GraphTest, SetUniformCapacity) {
  Graph g(3);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 200.0, 1.0);
  g.set_uniform_capacity(750.0);
  for (const Arc& a : g.arcs()) EXPECT_DOUBLE_EQ(a.capacity, 750.0);
}

TEST(GraphTest, ScaleLinkCapacity) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1, 100.0, 1.0);
  g.scale_link_capacity(l, 3.0);
  for (ArcId a : g.link_arcs(l)) EXPECT_DOUBLE_EQ(g.arc(a).capacity, 300.0);
  EXPECT_THROW(g.scale_link_capacity(l, -1.0), std::invalid_argument);
}

TEST(GraphTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(euclidean_distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(euclidean_distance({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

// The CSR and the legacy per-node vectors must present the exact same arcs
// in the exact same order — the byte-identity of every float accumulation
// downstream rides on it.
void expect_csr_matches_legacy(const Graph& g) {
  const GraphCsr& csr = g.csr();
  ASSERT_EQ(csr.out_offset.size(), g.num_nodes() + 1);
  ASSERT_EQ(csr.in_offset.size(), g.num_nodes() + 1);
  ASSERT_EQ(csr.out_arc.size(), g.num_arcs());
  ASSERT_EQ(csr.in_arc.size(), g.num_arcs());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto out = g.out_arcs(u);
    ASSERT_EQ(csr.out_offset[u + 1] - csr.out_offset[u], out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t k = csr.out_offset[u] + i;
      EXPECT_EQ(csr.out_arc[k], out[i]);
      EXPECT_EQ(csr.out_head[k], g.arc(out[i]).dst);
    }
    const auto in = g.in_arcs(u);
    ASSERT_EQ(csr.in_offset[u + 1] - csr.in_offset[u], in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::size_t k = csr.in_offset[u] + i;
      EXPECT_EQ(csr.in_arc[k], in[i]);
      EXPECT_EQ(csr.in_tail[k], g.arc(in[i]).src);
    }
  }
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    EXPECT_EQ(csr.src[a], arc.src);
    EXPECT_EQ(csr.dst[a], arc.dst);
    EXPECT_EQ(csr.link[a], arc.link);
    EXPECT_EQ(csr.capacity[a], arc.capacity);
    EXPECT_EQ(csr.prop_delay_ms[a], arc.prop_delay_ms);
  }
}

Graph csr_fixture() {
  Graph g(5);
  g.add_link(0, 1, 100.0, 1.0);
  g.add_link(1, 2, 200.0, 2.0);
  g.add_link(2, 3, 300.0, 3.0);
  g.add_link(3, 0, 400.0, 4.0);
  g.add_link(1, 3, 500.0, 5.0);
  g.add_arc(4, 0, 600.0, 6.0);  // one-directional arc, no reverse
  return g;
}

TEST(GraphCsrTest, MatchesLegacyAdjacencyAndAttributes) {
  expect_csr_matches_legacy(csr_fixture());
}

TEST(GraphCsrTest, RebuildsAfterMutation) {
  Graph g = csr_fixture();
  (void)g.csr();  // force a build, then invalidate through every mutator
  g.set_uniform_capacity(42.0);
  EXPECT_EQ(g.csr().capacity[0], 42.0);
  g.scale_prop_delays(2.0);
  EXPECT_EQ(g.csr().prop_delay_ms[0], g.arc(0).prop_delay_ms);
  g.set_link_prop_delay(0, 9.0);
  EXPECT_EQ(g.csr().prop_delay_ms[0], 9.0);
  g.scale_link_capacity(0, 0.5);
  EXPECT_EQ(g.csr().capacity[0], 21.0);
  const NodeId n = g.add_node();
  g.add_link(n, 0, 50.0, 1.0);
  expect_csr_matches_legacy(g);
}

TEST(GraphCsrTest, CopiesRebuildIndependently) {
  Graph g = csr_fixture();
  (void)g.csr();
  Graph copy = g;
  copy.set_uniform_capacity(7.0);
  expect_csr_matches_legacy(copy);
  // The original's cached CSR is untouched by the copy's mutation.
  EXPECT_EQ(g.csr().capacity[0], 100.0);
  Graph assigned;
  assigned = g;
  expect_csr_matches_legacy(assigned);
  const Graph moved = std::move(copy);
  expect_csr_matches_legacy(moved);
}

}  // namespace
}  // namespace dtr
