#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/connectivity.h"
#include "graph/graph_io.h"
#include "graph/isp.h"
#include "graph/topology.h"
#include "scenarios/srlg.h"

namespace dtr {
namespace {

IspGenParams smoke_params() {
  IspGenParams p;
  p.num_nodes = 120;
  p.num_pops = 8;
  p.cores_per_pop = 2;
  p.backbone_degree = 3.0;
  p.seed = 7;
  return p;
}

std::string serialize(const Graph& g) {
  std::ostringstream ss;
  write_graph(ss, g);
  return ss.str();
}

TEST(IspGenTest, SeededDeterminismIsByteIdentical) {
  const std::string a = serialize(make_isp_topo(smoke_params()));
  const std::string b = serialize(make_isp_topo(smoke_params()));
  EXPECT_EQ(a, b);

  IspGenParams other = smoke_params();
  other.seed = 8;
  EXPECT_NE(a, serialize(make_isp_topo(other)));
}

TEST(IspGenTest, HasRequestedShape) {
  const IspGenParams p = smoke_params();
  const Graph g = make_isp_topo(p);
  EXPECT_EQ(g.num_nodes(), static_cast<std::size_t>(p.num_nodes));
  // Hierarchy floor: per-PoP core mesh + PoP ring + dual-homed access tier.
  const std::size_t cores =
      static_cast<std::size_t>(p.num_pops) * static_cast<std::size_t>(p.cores_per_pop);
  EXPECT_GE(g.num_links(), static_cast<std::size_t>(p.num_pops) +
                               2 * (static_cast<std::size_t>(p.num_nodes) - cores));
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_two_edge_connected(g));
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Arc& a = g.arc(g.link_arcs(l)[0]);
    EXPECT_GT(a.capacity, 0.0);
    EXPECT_GT(a.prop_delay_ms, 0.0);
  }
}

TEST(IspGenTest, DegreeDistributionIsSkewed) {
  IspGenParams p = smoke_params();
  p.num_nodes = 300;
  p.num_pops = 12;
  const Graph g = make_isp_topo(p);
  // Access routers are dual-homed (degree 2); hub cores aggregate them, so
  // the max degree should tower over the median — the Rocketfuel skew.
  std::vector<std::size_t> degree;
  for (NodeId u = 0; u < g.num_nodes(); ++u) degree.push_back(g.link_degree(u));
  std::sort(degree.begin(), degree.end());
  const std::size_t median = degree[degree.size() / 2];
  const std::size_t max = degree.back();
  EXPECT_EQ(median, 2u);
  EXPECT_GE(max, 4 * median);
}

TEST(IspGenTest, AvgDegreeKnobAddsPeeringChords) {
  IspGenParams p = smoke_params();
  p.avg_degree = 8.0;
  const Graph g = make_isp_topo(p);
  EXPECT_GE(g.average_link_degree(), 7.9);
  EXPECT_TRUE(is_two_edge_connected(g));
}

TEST(IspGenTest, GeoPositionsFeedSrlgSynthesis) {
  const Graph g = make_isp_topo(smoke_params());
  GeoSrlgParams geo;
  geo.grid = 6;
  const auto groups = synthesize_geo_srlgs(g, geo);
  EXPECT_FALSE(groups.empty());
}

TEST(IspGenTest, RejectsInvalidParams) {
  IspGenParams p = smoke_params();
  p.num_pops = 2;
  EXPECT_THROW(make_isp_topo(p), std::invalid_argument);
  p = smoke_params();
  p.cores_per_pop = 1;
  EXPECT_THROW(make_isp_topo(p), std::invalid_argument);
  p = smoke_params();
  p.num_nodes = 5;
  EXPECT_THROW(make_isp_topo(p), std::invalid_argument);
  p = smoke_params();
  p.backbone_degree = 1.0;
  EXPECT_THROW(make_isp_topo(p), std::invalid_argument);
  p = smoke_params();
  p.num_nodes = kMaxTopologyNodes + 1;
  EXPECT_THROW(make_isp_topo(p), std::invalid_argument);
}

TEST(IspLoaderTest, RoundTripsThroughGraphIo) {
  const Graph g = make_isp_topo(smoke_params());
  const std::string path = ::testing::TempDir() + "/isp_roundtrip.graph";
  {
    std::ofstream out(path);
    write_graph(out, g);
  }
  const Graph loaded = load_isp_topo(path);
  EXPECT_EQ(serialize(loaded), serialize(g));
  std::remove(path.c_str());
}

TEST(IspLoaderTest, MissingFileThrows) {
  EXPECT_THROW(load_isp_topo("/nonexistent/isp.graph"), std::runtime_error);
}

}  // namespace
}  // namespace dtr
