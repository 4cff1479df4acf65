#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph_io.h"
#include "graph/isp.h"
#include "graph/topology.h"
#include "routing/weights_io.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace dtr {
namespace {

// ------------------------------------------------------------ graph I/O

TEST(GraphIoTest, RoundTripPreservesStructure) {
  const Graph original = make_rand_topo({12, 4.0, 500.0, 5});
  std::stringstream ss;
  write_graph(ss, original);
  const Graph copy = read_graph(ss);
  ASSERT_EQ(copy.num_nodes(), original.num_nodes());
  ASSERT_EQ(copy.num_links(), original.num_links());
  ASSERT_EQ(copy.num_arcs(), original.num_arcs());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(copy.position(u).x, original.position(u).x);
    EXPECT_DOUBLE_EQ(copy.position(u).y, original.position(u).y);
  }
  for (ArcId a = 0; a < original.num_arcs(); ++a) {
    EXPECT_EQ(copy.arc(a).src, original.arc(a).src);
    EXPECT_EQ(copy.arc(a).dst, original.arc(a).dst);
    EXPECT_DOUBLE_EQ(copy.arc(a).capacity, original.arc(a).capacity);
    // max_digits10 output makes the text round-trip exact.
    EXPECT_DOUBLE_EQ(copy.arc(a).prop_delay_ms, original.arc(a).prop_delay_ms);
  }
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n\ndtr-graph 1\n# another\nnodes 2\nnode 0 0.0 0.0\n"
      "node 1 1.0 0.0\nlinks 1\n\nlink 0 1 500 3.5\n");
  const Graph g = read_graph(ss);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_DOUBLE_EQ(g.arc(0).prop_delay_ms, 3.5);
}

TEST(GraphIoTest, RejectsMalformedInput) {
  const char* cases[] = {
      "",                                        // empty
      "bogus 1\n",                               // bad magic
      "dtr-graph 2\n",                           // bad version
      "dtr-graph 1\nnodes x\n",                  // bad count
      "dtr-graph 1\nnodes 2\nnode 1 0 0\n",      // out-of-order id
      "dtr-graph 1\nnodes 1\nnode 0 0 0\nlinks 1\nlink 0 5 100 1\n",  // bad endpoint
      "dtr-graph 1\nnodes 2\nnode 0 0 0\nnode 1 1 0\nlinks 1\n",      // missing link
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    EXPECT_THROW(read_graph(ss), std::runtime_error) << "input: " << text;
  }
}

TEST(GraphIoTest, RejectsDisconnectedGraphNamingUnreachableNode) {
  // Node 2 has no link: every pair touching it would be unroutable.
  std::stringstream ss(
      "dtr-graph 1\nnodes 3\nnode 0 0 0\nnode 1 1 0\nnode 2 2 0\n"
      "links 1\nlink 0 1 500 1\n");
  try {
    read_graph(ss);
    FAIL() << "disconnected graph accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "read_graph: graph is not connected: node 2 is unreachable from node 0");
  }
}

TEST(GraphIoTest, RejectsOneDirectionalArcsOnWrite) {
  Graph g(2);
  g.add_arc(0, 1, 100.0, 1.0);
  std::stringstream ss;
  EXPECT_THROW(write_graph(ss, g), std::invalid_argument);
}

TEST(GraphIoTest, DotExportMentionsAllNodesAndLinks) {
  const IspTopology isp = make_isp_backbone();
  const std::string dot = to_dot(isp.graph, isp.city_names);
  EXPECT_NE(dot.find("graph dtr {"), std::string::npos);
  EXPECT_NE(dot.find("Seattle"), std::string::npos);
  EXPECT_NE(dot.find("Boston"), std::string::npos);
  std::size_t edges = 0;
  for (std::size_t pos = 0; (pos = dot.find(" -- ", pos)) != std::string::npos; ++pos)
    ++edges;
  EXPECT_EQ(edges, isp.graph.num_links());
}

TEST(GraphIoTest, DotExportValidatesNameCount) {
  const Graph g = test::make_diamond();
  const std::vector<std::string> wrong{"a", "b"};
  EXPECT_THROW(to_dot(g, wrong), std::invalid_argument);
}

// ------------------------------------------------------------ weights I/O

TEST(WeightsIoTest, RoundTrip) {
  WeightSetting original(25);
  Rng rng(7);
  randomize_weights(original, 100, rng);
  std::stringstream ss;
  write_weights(ss, original);
  const WeightSetting copy = read_weights(ss);
  EXPECT_TRUE(copy == original);
}

TEST(WeightsIoTest, RejectsMalformedInput) {
  const char* cases[] = {
      "",
      "dtr-weights 9\n",
      "dtr-weights 1\nlinks 2\n1 1\n",       // truncated
      "dtr-weights 1\nlinks 1\n0 5\n",       // weight < 1
      "dtr-weights 1\nlinks 1\nx y\n",       // non-numeric
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    EXPECT_THROW(read_weights(ss), std::runtime_error) << "input: " << text;
  }
}

TEST(WeightsIoTest, CommentsAllowed) {
  std::stringstream ss("# exported by dtr\ndtr-weights 1\nlinks 1\n# link 0\n3 9\n");
  const WeightSetting w = read_weights(ss);
  EXPECT_EQ(w.get(TrafficClass::kDelay, 0), 3);
  EXPECT_EQ(w.get(TrafficClass::kThroughput, 0), 9);
}

}  // namespace
}  // namespace dtr
