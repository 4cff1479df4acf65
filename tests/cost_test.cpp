#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cost/cost_types.h"
#include "cost/delay_model.h"
#include "cost/fortz.h"
#include "cost/sla.h"

namespace dtr {
namespace {

// ---------------------------------------------------------- delay model

TEST(DelayModelTest, PropagationOnlyBelowThreshold) {
  const DelayModelParams p;
  // mu = 0.95: at 94% utilization, delay == propagation (Eq. 1a).
  EXPECT_DOUBLE_EQ(link_delay_ms(470.0, 500.0, 7.0, p), 7.0);
  EXPECT_DOUBLE_EQ(link_delay_ms(0.0, 500.0, 7.0, p), 7.0);
  EXPECT_DOUBLE_EQ(link_delay_ms(475.0, 500.0, 7.0, p), 7.0);  // exactly mu
}

TEST(DelayModelTest, QueueingAppearsAboveThreshold) {
  const DelayModelParams p;
  const double d = link_delay_ms(480.0, 500.0, 7.0, p);  // 96% > mu
  EXPECT_GT(d, 7.0);
}

TEST(DelayModelTest, PaperCalibration95PercentUnderHalfMs) {
  // Paper: "a 95% link load corresponds to an average queueing delay of less
  // than 0.5ms" at kappa=1500B, C=500Mbps.
  const DelayModelParams p;
  const double q = queueing_delay_ms(475.0, 500.0, p);
  EXPECT_LT(q, 0.5);
  EXPECT_GT(q, 0.4);  // M/M/1: 0.024ms * (19+1) = 0.48ms
  EXPECT_NEAR(q, 0.48, 1e-9);
}

TEST(DelayModelTest, MM1ExactValueMidRange) {
  const DelayModelParams p;
  // x/C = 0.5: x/(C-x) = 1 -> (kappa/C)*2. kappa/C = 1500*0.008/100 = 0.12ms.
  EXPECT_NEAR(queueing_delay_ms(50.0, 100.0, p), 0.12 * 2.0, 1e-12);
}

TEST(DelayModelTest, MonotoneInLoad) {
  const DelayModelParams p;
  double prev = 0.0;
  for (double load = 0.0; load <= 130.0; load += 1.0) {
    const double q = queueing_delay_ms(load, 100.0, p);
    EXPECT_GE(q, prev) << "load " << load;
    prev = q;
  }
}

TEST(DelayModelTest, ContinuousAtLinearizationKnee) {
  const DelayModelParams p;
  const double knee = 0.99 * 100.0;
  const double below = queueing_delay_ms(knee - 1e-7, 100.0, p);
  const double above = queueing_delay_ms(knee + 1e-7, 100.0, p);
  EXPECT_NEAR(below, above, 1e-4);
}

TEST(DelayModelTest, FiniteAboveCapacity) {
  const DelayModelParams p;
  const double d = link_delay_ms(150.0, 100.0, 5.0, p);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GT(d, 5.0);
}

TEST(DelayModelTest, LinearizedSlopeMatchesTangent) {
  const DelayModelParams p;
  // Past the knee the occupancy term is linear with slope C/(C-knee)^2.
  const double c = 100.0;
  const double q1 = queueing_delay_ms(110.0, c, p);
  const double q2 = queueing_delay_ms(111.0, c, p);
  const double kappa_over_c = 1500.0 * 0.008 / c;
  const double expected_slope = kappa_over_c * (c / (1.0 * 1.0));  // (C-0.99C)^2 = 1
  EXPECT_NEAR(q2 - q1, expected_slope, 1e-9);
}

TEST(DelayModelTest, Validation) {
  const DelayModelParams p;
  EXPECT_THROW(queueing_delay_ms(10.0, 0.0, p), std::invalid_argument);
  EXPECT_THROW(queueing_delay_ms(-1.0, 10.0, p), std::invalid_argument);
  EXPECT_THROW(link_delay_ms(1.0, 10.0, -1.0, p), std::invalid_argument);
}

TEST(DelayModelTest, CustomThreshold) {
  DelayModelParams p;
  p.utilization_threshold = 0.5;
  EXPECT_DOUBLE_EQ(link_delay_ms(49.0, 100.0, 3.0, p), 3.0);
  EXPECT_GT(link_delay_ms(51.0, 100.0, 3.0, p), 3.0);
}

// ---------------------------------------------------------- SLA cost

TEST(SlaTest, ZeroBelowBound) {
  const SlaParams p;  // theta=25, B1=100, B2=1
  EXPECT_DOUBLE_EQ(sla_cost(10.0, p), 0.0);
  EXPECT_DOUBLE_EQ(sla_cost(25.0, p), 0.0);  // boundary: <= theta is fine
  EXPECT_FALSE(sla_violated(25.0, p));
}

TEST(SlaTest, PenaltyAboveBound) {
  const SlaParams p;
  EXPECT_TRUE(sla_violated(25.001, p));
  EXPECT_NEAR(sla_cost(30.0, p), 100.0 + 5.0, 1e-12);
  EXPECT_NEAR(sla_cost(125.0, p), 100.0 + 100.0, 1e-12);
}

TEST(SlaTest, B1JumpAtBoundary) {
  const SlaParams p;
  // Even an infinitesimal violation costs at least B1.
  EXPECT_GE(sla_cost(25.0 + 1e-9, p), 100.0);
}

TEST(SlaTest, CustomParameters) {
  const SlaParams p{50.0, 10.0, 2.0};
  EXPECT_DOUBLE_EQ(sla_cost(49.0, p), 0.0);
  EXPECT_DOUBLE_EQ(sla_cost(60.0, p), 10.0 + 2.0 * 10.0);
}

TEST(SlaTest, AccumulateSkipsCapsAndCounts) {
  const SlaParams p;  // theta=25, B1=100, B2=1
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Layout mirrors the evaluator's sd_delay: -1 = no demand, +inf =
  // disconnected (replaced in place by the disconnect charge).
  std::vector<double> delays{-1.0, 10.0, 30.0, kInf, -1.0, 25.0};
  const SlaAggregate agg = accumulate_sla_cost(delays, p, 125.0);
  EXPECT_EQ(agg.violations, 2);  // 30ms and the capped disconnect
  EXPECT_DOUBLE_EQ(agg.lambda, (100.0 + 5.0) + (100.0 + 100.0));
  EXPECT_DOUBLE_EQ(delays[3], 125.0);  // inf replaced in place
  EXPECT_DOUBLE_EQ(delays[0], -1.0);   // no-demand entries untouched
}

// ---------------------------------------------------------- Fortz cost

TEST(FortzTest, ZeroLoadZeroCost) { EXPECT_DOUBLE_EQ(fortz_cost(0.0, 100.0), 0.0); }

TEST(FortzTest, UnitSlopeLowLoad) {
  // Below 1/3 utilization, f(x) = x.
  EXPECT_NEAR(fortz_cost(20.0, 100.0), 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(fortz_derivative(20.0, 100.0), 1.0);
}

TEST(FortzTest, BreakpointValuesMatchClosedForm) {
  const double c = 300.0;  // breakpoints at 100, 200, 270, 300, 330
  // f(100) = 100 (slope 1 up to 1/3).
  EXPECT_NEAR(fortz_cost(100.0, c), 100.0, 1e-9);
  // f(200) = 100 + 3*100 = 400.
  EXPECT_NEAR(fortz_cost(200.0, c), 400.0, 1e-9);
  // f(270) = 400 + 10*70 = 1100.
  EXPECT_NEAR(fortz_cost(270.0, c), 1100.0, 1e-9);
  // f(300) = 1100 + 70*30 = 3200.
  EXPECT_NEAR(fortz_cost(300.0, c), 3200.0, 1e-9);
  // f(330) = 3200 + 500*30 = 18200.
  EXPECT_NEAR(fortz_cost(330.0, c), 18200.0, 1e-9);
  // f(400) = 18200 + 5000*70 = 368200.
  EXPECT_NEAR(fortz_cost(400.0, c), 368200.0, 1e-9);
}

TEST(FortzTest, DerivativeSegments) {
  const double c = 100.0;
  EXPECT_DOUBLE_EQ(fortz_derivative(0.0, c), 1.0);
  EXPECT_DOUBLE_EQ(fortz_derivative(34.0, c), 3.0);
  EXPECT_DOUBLE_EQ(fortz_derivative(67.0, c), 10.0);
  EXPECT_DOUBLE_EQ(fortz_derivative(91.0, c), 70.0);
  EXPECT_DOUBLE_EQ(fortz_derivative(101.0, c), 500.0);
  EXPECT_DOUBLE_EQ(fortz_derivative(120.0, c), 5000.0);
}

TEST(FortzTest, ConvexityProperty) {
  // f((a+b)/2) <= (f(a)+f(b))/2 over a sweep including overload.
  const double c = 100.0;
  for (double a = 0.0; a <= 140.0; a += 7.0) {
    for (double b = a; b <= 140.0; b += 11.0) {
      const double mid = fortz_cost((a + b) / 2.0, c);
      const double avg = (fortz_cost(a, c) + fortz_cost(b, c)) / 2.0;
      EXPECT_LE(mid, avg + 1e-9);
    }
  }
}

TEST(FortzTest, StrictlyIncreasing) {
  const double c = 100.0;
  double prev = -1.0;
  for (double x = 1.0; x <= 140.0; x += 1.0) {
    const double f = fortz_cost(x, c);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(FortzTest, ScalesWithCapacity) {
  // Same utilization, doubled capacity => doubled cost (cost is in Mbps).
  EXPECT_NEAR(fortz_cost(100.0, 200.0), 2.0 * fortz_cost(50.0, 100.0), 1e-9);
}

TEST(FortzTest, Validation) {
  EXPECT_THROW(fortz_cost(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(fortz_cost(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(fortz_derivative(-1.0, 10.0), std::invalid_argument);
}

// ---------------------------------------------------------- lexicographic K

TEST(LexOrderTest, LambdaDominates) {
  const LexicographicOrder ord;
  EXPECT_TRUE(ord.less({1.0, 100.0}, {2.0, 0.0}));
  EXPECT_FALSE(ord.less({2.0, 0.0}, {1.0, 100.0}));
}

TEST(LexOrderTest, PhiBreaksTies) {
  const LexicographicOrder ord;
  EXPECT_TRUE(ord.less({1.0, 5.0}, {1.0, 6.0}));
  EXPECT_FALSE(ord.less({1.0, 6.0}, {1.0, 5.0}));
  EXPECT_FALSE(ord.less({1.0, 5.0}, {1.0, 5.0}));
}

TEST(LexOrderTest, ToleranceTreatsNoiseAsEqual) {
  const LexicographicOrder ord;
  EXPECT_TRUE(ord.values_equal(100.0, 100.0 + 1e-8));
  // Lambda noise must not block a Phi improvement.
  EXPECT_TRUE(ord.less({100.0 + 1e-8, 5.0}, {100.0, 6.0}));
}

TEST(LexOrderTest, EqualPairs) {
  const LexicographicOrder ord;
  EXPECT_TRUE(ord.equal({1.0, 2.0}, {1.0, 2.0}));
  EXPECT_FALSE(ord.equal({1.0, 2.0}, {1.0, 3.0}));
}

TEST(LexOrderTest, StrictWeakOrderingLaws) {
  const LexicographicOrder ord;
  // Values spaced far beyond the tolerance.
  const CostPair pairs[] = {{0.0, 0.0}, {0.0, 10.0}, {5.0, 0.0}, {5.0, 10.0}, {9.0, 3.0}};
  for (const auto& a : pairs) {
    EXPECT_FALSE(ord.less(a, a));  // irreflexive
    for (const auto& b : pairs) {
      if (ord.less(a, b)) {
        EXPECT_FALSE(ord.less(b, a));  // asymmetric
      }
      for (const auto& c : pairs) {
        if (ord.less(a, b) && ord.less(b, c)) {
          EXPECT_TRUE(ord.less(a, c));  // transitive
        }
      }
    }
  }
}

TEST(LexOrderTest, ImprovesByFraction) {
  const LexicographicOrder ord;
  // 10% Lambda improvement.
  EXPECT_TRUE(ord.improves_by_fraction({90.0, 0.0}, {100.0, 0.0}, 0.05));
  EXPECT_FALSE(ord.improves_by_fraction({99.9, 0.0}, {100.0, 0.0}, 0.05));
  // Equal Lambda: judged on Phi.
  EXPECT_TRUE(ord.improves_by_fraction({100.0, 80.0}, {100.0, 100.0}, 0.1));
  EXPECT_FALSE(ord.improves_by_fraction({100.0, 99.95}, {100.0, 100.0}, 0.1));
  // Not an improvement at all.
  EXPECT_FALSE(ord.improves_by_fraction({110.0, 0.0}, {100.0, 0.0}, 0.0));
}

TEST(LexOrderTest, ToString) {
  const std::string s = to_string(CostPair{1.5, 2.5});
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

}  // namespace
}  // namespace dtr
