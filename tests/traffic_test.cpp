#include <gtest/gtest.h>

#include <limits>

#include "graph/isp.h"
#include "graph/topology.h"
#include "test_helpers.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "traffic/traffic_matrix.h"

namespace dtr {
namespace {

// ------------------------------------------------------- TrafficMatrix

TEST(TrafficMatrixTest, StartsEmpty) {
  TrafficMatrix tm(4);
  EXPECT_EQ(tm.num_nodes(), 4u);
  EXPECT_DOUBLE_EQ(tm.total(), 0.0);
  EXPECT_EQ(tm.num_positive_demands(), 0u);
}

TEST(TrafficMatrixTest, SetAddAt) {
  TrafficMatrix tm(3);
  tm.set(0, 1, 5.0);
  tm.add(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(tm.at(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(tm.at(1, 0), 0.0);
  EXPECT_EQ(tm.num_positive_demands(), 1u);
}

TEST(TrafficMatrixTest, RejectsDiagonalAndNegative) {
  TrafficMatrix tm(3);
  EXPECT_THROW(tm.set(1, 1, 5.0), std::invalid_argument);
  EXPECT_THROW(tm.set(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(tm.set(0, 9, 1.0), std::out_of_range);
}

TEST(TrafficMatrixTest, ScaleAndScaled) {
  TrafficMatrix tm(3);
  tm.set(0, 1, 4.0);
  tm.set(2, 0, 6.0);
  const TrafficMatrix half = tm.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.at(0, 1), 2.0);
  tm.scale(2.0);
  EXPECT_DOUBLE_EQ(tm.at(2, 0), 12.0);
  EXPECT_THROW(tm.scale(-1.0), std::invalid_argument);
}

TEST(TrafficMatrixTest, RemoveNodeTraffic) {
  TrafficMatrix tm(3);
  tm.set(0, 1, 1.0);
  tm.set(1, 2, 2.0);
  tm.set(2, 0, 3.0);
  tm.remove_node_traffic(1);
  EXPECT_DOUBLE_EQ(tm.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(tm.at(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(tm.at(2, 0), 3.0);
}

TEST(TrafficMatrixTest, ForEachDemandVisitsPositivesOnly) {
  TrafficMatrix tm(3);
  tm.set(0, 1, 1.5);
  tm.set(2, 1, 2.5);
  double sum = 0.0;
  int count = 0;
  tm.for_each_demand([&](NodeId, NodeId, double v) {
    sum += v;
    ++count;
  });
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sum, 4.0);
}

TEST(ClassedTrafficTest, SplitPreservesTotals) {
  TrafficMatrix total(3);
  total.set(0, 1, 10.0);
  total.set(1, 2, 20.0);
  const ClassedTraffic ct = split_by_class(total, 0.30);
  EXPECT_DOUBLE_EQ(ct.delay.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(ct.throughput.at(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(ct.delay.total() + ct.throughput.total(), total.total());
  const TrafficMatrix sum = ct.combined();
  EXPECT_DOUBLE_EQ(sum.at(1, 2), 20.0);
}

TEST(ClassedTrafficTest, SplitValidation) {
  TrafficMatrix total(2);
  EXPECT_THROW(split_by_class(total, -0.1), std::invalid_argument);
  EXPECT_THROW(split_by_class(total, 1.1), std::invalid_argument);
}

TEST(ClassedTrafficTest, EveryPairHasDelayTraffic) {
  // The paper assumes each SD pair generates delay-sensitive traffic.
  const Graph g = make_rand_topo({10, 4.0, 500.0, 3});
  const TrafficMatrix total = make_gravity_traffic(g, {1.0, 1.0, 4});
  const ClassedTraffic ct = split_by_class(total, 0.30);
  EXPECT_EQ(ct.delay.num_positive_demands(), 10u * 9u);
}

// ------------------------------------------------------- gravity model

TEST(GravityTest, AllPairsPositive) {
  const Graph g = make_rand_topo({12, 4.0, 500.0, 5});
  const TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 6});
  EXPECT_EQ(tm.num_positive_demands(), 12u * 11u);
}

TEST(GravityTest, DeterministicPerSeed) {
  const Graph g = make_rand_topo({8, 4.0, 500.0, 5});
  const TrafficMatrix a = make_gravity_traffic(g, {1.0, 1.0, 6});
  const TrafficMatrix b = make_gravity_traffic(g, {1.0, 1.0, 6});
  EXPECT_DOUBLE_EQ(a.total(), b.total());
  const TrafficMatrix c = make_gravity_traffic(g, {1.0, 1.0, 7});
  EXPECT_NE(a.total(), c.total());
}

TEST(GravityTest, AlphaScalesLinearly) {
  const Graph g = make_rand_topo({8, 4.0, 500.0, 5});
  const TrafficMatrix a = make_gravity_traffic(g, {1.0, 1.0, 6});
  const TrafficMatrix b = make_gravity_traffic(g, {2.0, 1.0, 6});
  EXPECT_NEAR(b.total(), 2.0 * a.total(), 1e-9);
}

TEST(GravityTest, DistanceDecayReducesFarTraffic) {
  // With much stronger decay, total demand must shrink (same draws).
  const Graph g = make_rand_topo({10, 4.0, 500.0, 5});
  const TrafficMatrix weak = make_gravity_traffic(g, {1.0, 0.5, 6});
  const TrafficMatrix strong = make_gravity_traffic(g, {1.0, 8.0, 6});
  EXPECT_LT(strong.total(), weak.total());
}

TEST(GravityTest, Validation) {
  const Graph g = make_rand_topo({8, 4.0, 500.0, 5});
  EXPECT_THROW(make_gravity_traffic(g, {0.0, 1.0, 1}), std::invalid_argument);
  Graph tiny(1);
  EXPECT_THROW(make_gravity_traffic(tiny, {1.0, 1.0, 1}), std::invalid_argument);
}

// ------------------------------------------------------- scaling

TEST(ScalingTest, HitsAverageUtilizationTarget) {
  const Graph g = make_rand_topo({12, 4.0, 500.0, 8});
  TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 9});
  scale_to_utilization(g, tm, {UtilizationTarget::Kind::kAverage, 0.43});
  const UtilizationSummary s = min_hop_utilization(g, tm);
  EXPECT_NEAR(s.average, 0.43, 1e-9);
}

TEST(ScalingTest, HitsMaxUtilizationTarget) {
  const Graph g = make_rand_topo({12, 4.0, 500.0, 8});
  TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 9});
  scale_to_utilization(g, tm, {UtilizationTarget::Kind::kMax, 0.90});
  const UtilizationSummary s = min_hop_utilization(g, tm);
  EXPECT_NEAR(s.max, 0.90, 1e-9);
}

TEST(ScalingTest, ClassedVariantScalesBothClasses) {
  const Graph g = make_rand_topo({10, 4.0, 500.0, 8});
  ClassedTraffic ct = split_by_class(make_gravity_traffic(g, {1.0, 1.0, 9}), 0.3);
  const double delay_before = ct.delay.total();
  const double factor =
      scale_to_utilization(g, ct, {UtilizationTarget::Kind::kAverage, 0.5});
  EXPECT_NEAR(ct.delay.total(), delay_before * factor, 1e-9);
  // Class split ratio preserved.
  EXPECT_NEAR(ct.delay.total() / (ct.delay.total() + ct.throughput.total()), 0.3, 1e-9);
}

TEST(ScalingTest, Validation) {
  const Graph g = make_rand_topo({10, 4.0, 500.0, 8});
  TrafficMatrix empty(g.num_nodes());
  EXPECT_THROW(scale_to_utilization(g, empty, {UtilizationTarget::Kind::kAverage, 0.4}),
               std::invalid_argument);
  TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 9});
  EXPECT_THROW(scale_to_utilization(g, tm, {UtilizationTarget::Kind::kAverage, 0.0}),
               std::invalid_argument);
}

TEST(ScalingTest, RejectsNonFiniteTarget) {
  const Graph g = make_rand_topo({10, 4.0, 500.0, 8});
  TrafficMatrix tm = make_gravity_traffic(g, {1.0, 1.0, 9});
  const double before = tm.total();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(scale_to_utilization(g, tm, {UtilizationTarget::Kind::kMax, inf}),
               std::invalid_argument);
  EXPECT_THROW(scale_to_utilization(g, tm, {UtilizationTarget::Kind::kAverage,
                                            std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_EQ(tm.total(), before);  // a rejected target leaves the matrix untouched
}

TEST(ScalingTest, MaxAtLeastAverage) {
  const IspTopology isp = make_isp_backbone();
  TrafficMatrix tm = make_gravity_traffic(isp.graph, {1.0, 1.0, 2});
  const UtilizationSummary s = min_hop_utilization(isp.graph, tm);
  EXPECT_GE(s.max, s.average);
}

}  // namespace
}  // namespace dtr
