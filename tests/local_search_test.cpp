#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <tuple>

#include "core/acceptable_store.h"
#include "core/local_search.h"
#include "util/thread_pool.h"

namespace dtr {
namespace {

/// Convex separable toy objective: each link has an ideal weight per class;
/// cost = sum of squared distances. Unique global optimum, easy to verify.
class QuadraticObjective final : public SearchObjective {
 public:
  QuadraticObjective(std::vector<int> ideal_delay, std::vector<int> ideal_tput)
      : ideal_delay_(std::move(ideal_delay)), ideal_tput_(std::move(ideal_tput)) {}

  std::optional<CostPair> finish(const WeightSetting& w, const CostPair*) override {
    ++calls_;
    double cost = 0.0;
    for (LinkId l = 0; l < w.num_links(); ++l) {
      const double dd = w.get(TrafficClass::kDelay, l) - ideal_delay_[l];
      const double dt = w.get(TrafficClass::kThroughput, l) - ideal_tput_[l];
      cost += dd * dd + dt * dt;
    }
    return CostPair{cost, 0.0};
  }

  long calls() const { return calls_; }

 private:
  std::vector<int> ideal_delay_, ideal_tput_;
  long calls_ = 0;
};

/// Objective infeasible whenever any delay weight exceeds a cap — exercises
/// the constraint path.
class CappedObjective final : public SearchObjective {
 public:
  explicit CappedObjective(int cap) : cap_(cap) {}
  std::optional<CostPair> finish(const WeightSetting& w, const CostPair*) override {
    double sum = 0.0;
    for (LinkId l = 0; l < w.num_links(); ++l) {
      const int wd = w.get(TrafficClass::kDelay, l);
      if (wd > cap_) return std::nullopt;
      sum += wd;
    }
    return CostPair{sum, 0.0};
  }
  void adopt(const WeightSetting& w) override { adopted_.push_back(w); }

  const std::vector<WeightSetting>& adopted() const { return adopted_; }

 private:
  int cap_;
  std::vector<WeightSetting> adopted_;
};

/// Two-stage objective in the shape of Phase 2: quadratic cost, a screen
/// that decides some probes (infeasible, or scored outright) and defers the
/// rest to a finish that records what it saw and on which thread.
class ScreenedObjective final : public SearchObjective {
 public:
  ScreenedObjective(std::vector<int> ideal, int infeasible_mod)
      : ideal_(std::move(ideal)), infeasible_mod_(infeasible_mod) {}

  Screening screen(const WeightSetting& w) const override {
    ++screens_;
    const int key = w.get(TrafficClass::kDelay, 0) + w.get(TrafficClass::kThroughput, 1);
    if (key % infeasible_mod_ == 0) return Screening::decide(std::nullopt);
    if (key % 3 == 0) return Screening::decide(cost(w));
    return Screening::defer();
  }

  std::optional<CostPair> finish(const WeightSetting& w, const CostPair*) override {
    finished_.push_back(w);
    finish_threads_.push_back(std::this_thread::get_id());
    return cost(w);
  }

  long screens() const { return screens_.load(); }
  const std::vector<WeightSetting>& finished() const { return finished_; }
  const std::vector<std::thread::id>& finish_threads() const { return finish_threads_; }

 private:
  CostPair cost(const WeightSetting& w) const {
    double c = 0.0;
    for (LinkId l = 0; l < w.num_links(); ++l) {
      const double dd = w.get(TrafficClass::kDelay, l) - ideal_[l];
      const double dt = w.get(TrafficClass::kThroughput, l) - ideal_[l];
      c += dd * dd + dt * dt;
    }
    return CostPair{c, 0.0};
  }

  std::vector<int> ideal_;
  int infeasible_mod_;
  mutable std::atomic<long> screens_{0};
  std::vector<WeightSetting> finished_;
  std::vector<std::thread::id> finish_threads_;
};

LocalSearch::Config quick_config(std::uint64_t seed) {
  LocalSearch::Config c;
  c.phase = {5, 3, 0.01, 0};
  c.wmax = 20;
  c.seed = seed;
  return c;
}

TEST(LocalSearchTest, DescendsNearQuadraticOptimum) {
  // Per-link joint random reassignment is hill climbing: the exact optimum
  // needs the exact (delay, tput) pair drawn per link, so we require strong
  // descent rather than zero. Initial cost from all-1 weights is 706.
  QuadraticObjective obj({7, 3, 15, 9}, {2, 18, 5, 11});
  LocalSearch::Config config = quick_config(1);
  config.phase = {20, 6, 0.001, 0};
  LocalSearch search(config);
  const auto result = search.run(obj, WeightSetting(4));
  EXPECT_LT(result.best_cost.lambda, 50.0);
  EXPECT_GT(result.accepted_moves, 0);
}

TEST(LocalSearchTest, NeverWorsensBestCost) {
  QuadraticObjective obj({5, 5, 5}, {5, 5, 5});
  LocalSearch search(quick_config(2));
  std::vector<double> accepted_costs;
  search.set_on_accept([&](const WeightSetting&, const CostPair& c) {
    accepted_costs.push_back(c.lambda);
  });
  const auto result = search.run(obj, WeightSetting(3));
  // Accepted trajectory is monotone within a diversification; the BEST is
  // globally monotone: final best <= initial cost.
  const WeightSetting init(3);
  const auto init_cost = obj.evaluate(init, nullptr);
  EXPECT_LE(result.best_cost.lambda, init_cost->lambda);
}

TEST(LocalSearchTest, DeterministicForSeed) {
  QuadraticObjective obj1({7, 3, 15}, {2, 18, 5});
  QuadraticObjective obj2({7, 3, 15}, {2, 18, 5});
  LocalSearch s1(quick_config(9)), s2(quick_config(9));
  const auto r1 = s1.run(obj1, WeightSetting(3));
  const auto r2 = s2.run(obj2, WeightSetting(3));
  EXPECT_EQ(r1.best_cost.lambda, r2.best_cost.lambda);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_TRUE(r1.best == r2.best);
}

TEST(LocalSearchTest, ObserverSeesEveryProbe) {
  QuadraticObjective obj({3, 3}, {3, 3});
  LocalSearch search(quick_config(3));
  long events = 0, accepted_events = 0;
  search.set_observer([&](const PerturbationEvent& e) {
    ++events;
    EXPECT_LT(e.link, 2u);
    EXPECT_GE(e.new_weight_delay, 1);
    EXPECT_LE(e.new_weight_delay, 20);
    EXPECT_TRUE(e.cost_after.has_value());
    if (e.accepted) ++accepted_events;
  });
  const auto result = search.run(obj, WeightSetting(2));
  EXPECT_GT(events, 0);
  EXPECT_EQ(accepted_events, result.accepted_moves);
  // Every probe except the initial/restart evaluations fires the observer.
  EXPECT_GE(result.evaluations, events);
}

TEST(LocalSearchTest, ObserverOldWeightsRebuildIncumbent) {
  // The event's candidate with the link's old weights restored is exactly
  // the setting being perturbed: the initial point, then each adopted one.
  QuadraticObjective obj({7, 3, 15, 9}, {2, 18, 5, 11});
  LocalSearch search(quick_config(21));
  WeightSetting incumbent(4);
  long events = 0;
  search.set_on_accept([&](const WeightSetting& w, const CostPair&) { incumbent = w; });
  search.set_observer([&](const PerturbationEvent& e) {
    ++events;
    WeightSetting rebuilt = *e.candidate;
    EXPECT_EQ(rebuilt.get(TrafficClass::kDelay, e.link), e.new_weight_delay);
    EXPECT_EQ(rebuilt.get(TrafficClass::kThroughput, e.link), e.new_weight_tput);
    rebuilt.set(TrafficClass::kDelay, e.link, e.old_weight_delay);
    rebuilt.set(TrafficClass::kThroughput, e.link, e.old_weight_tput);
    EXPECT_TRUE(rebuilt == incumbent) << "event " << events;
  });
  search.run(obj, WeightSetting(4));
  EXPECT_GT(events, 0);
}

TEST(LocalSearchTest, InfeasibleCandidatesRejected) {
  CappedObjective obj(10);
  LocalSearch search(quick_config(4));
  const auto result = search.run(obj, WeightSetting(3, 5));
  // All weights must remain within the cap (moves violating it are rejected).
  for (LinkId l = 0; l < 3; ++l)
    EXPECT_LE(result.best.get(TrafficClass::kDelay, l), 10);
  // And the search still improves toward the minimum sum = 3.
  EXPECT_LE(result.best_cost.lambda, 15.0);
}

TEST(LocalSearchTest, ThrowsOnInfeasibleInitial) {
  CappedObjective obj(10);
  LocalSearch search(quick_config(5));
  EXPECT_THROW(search.run(obj, WeightSetting(3, 15)), std::invalid_argument);
}

TEST(LocalSearchTest, InfeasibleDiversificationDrawsOnceAndResumesFromTheBest) {
  // Cap 1 on 8 links: the initial all-1 point is the optimum and a uniform
  // draw is feasible with probability 20^-8, so every diversification costs
  // one evaluation and hands the best back to `adopt`. The third
  // diversification stalls out without a draw.
  CappedObjective obj(1);
  LocalSearch::Config config = quick_config(9);
  config.phase = {1, 3, 0.9, 0};
  LocalSearch search(config);
  long probes = 0;
  search.set_observer([&](const PerturbationEvent&) { ++probes; });
  std::vector<MoveRecord> moves;
  search.set_on_move([&](const MoveRecord& m) { moves.push_back(m); });
  const WeightSetting initial(8, 1);
  const auto result = search.run(obj, initial);
  ASSERT_EQ(result.diversifications, 3);
  EXPECT_EQ(result.evaluations, 1 + probes + 2);
  EXPECT_TRUE(moves.empty());
  EXPECT_EQ(obj.adopted(), std::vector<WeightSetting>(3, initial));
  EXPECT_EQ(result.best, initial);
}

TEST(LocalSearchTest, FeasibleDiversificationDrawIsAdoptedAsARestart) {
  // Cap = wmax: every draw is feasible. The initial point is the optimum
  // (delay sum 3), so the best never changes; diversifications 1 and 2 each
  // adopt their draw and record it as a restart move, and diversification 3
  // stalls out. Probe accepts are recorded but not adopted.
  CappedObjective obj(20);
  LocalSearch::Config config = quick_config(9);
  config.phase = {1, 3, 0.9, 0};
  LocalSearch search(config);
  std::vector<MoveRecord> restarts;
  search.set_on_move([&](const MoveRecord& m) {
    if (m.restart) restarts.push_back(m);
  });
  const WeightSetting initial(3, 1);
  const auto result = search.run(obj, initial);
  ASSERT_EQ(result.diversifications, 3);
  ASSERT_EQ(restarts.size(), 2u);
  ASSERT_EQ(obj.adopted().size(), 3u);
  EXPECT_EQ(obj.adopted()[0], initial);
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    EXPECT_EQ(restarts[i].link, kInvalidLink);
    const WeightSetting& draw = obj.adopted()[i + 1];
    EXPECT_NE(draw, initial);
    EXPECT_EQ(restarts[i].cost.lambda, obj.evaluate(draw, nullptr)->lambda);
  }
  EXPECT_EQ(result.best, initial);
}

TEST(LocalSearchTest, IterationCapStopsWithoutARestartDraw) {
  // Capped below the diversification interval: the run evaluates the
  // initial point and its probes, then stops instead of drawing a restart.
  QuadraticObjective obj({7, 3, 15, 9}, {2, 18, 5, 11});
  LocalSearch::Config config = quick_config(12);
  config.phase = {100, 3, 0.01, 0, 2};
  LocalSearch search(config);
  long probes = 0;
  search.set_observer([&](const PerturbationEvent&) { ++probes; });
  bool restarted = false;
  search.set_on_move([&](const MoveRecord& m) { restarted |= m.restart; });
  const auto result = search.run(obj, WeightSetting(4, 1));
  EXPECT_EQ(result.iterations, 2);
  EXPECT_EQ(result.evaluations, 1 + probes);
  EXPECT_EQ(obj.calls(), 1 + probes);
  EXPECT_FALSE(restarted);
}

TEST(LocalSearchTest, DiversificationCountedAndBounded) {
  QuadraticObjective obj({1, 1}, {1, 1});
  LocalSearch::Config config = quick_config(7);
  config.phase = {1, 2, 0.9, 0};  // nearly impossible improvement bar
  LocalSearch search(config);
  const auto result = search.run(obj, WeightSetting(2, 1));
  // Starting at the optimum: every diversification stalls; stops after 2.
  EXPECT_EQ(result.diversifications, 2);
}

TEST(LocalSearchTest, HardCapOnDiversifications) {
  QuadraticObjective obj({10, 10}, {10, 10});
  LocalSearch::Config config = quick_config(8);
  config.phase = {1, 1000, 0.0, 3};  // improvement threshold 0: never stalls
  LocalSearch search(config);
  const auto result = search.run(obj, WeightSetting(2, 1));
  EXPECT_LE(result.diversifications, 3);
}

TEST(LocalSearchTest, ConfigValidation) {
  EXPECT_THROW(LocalSearch({{0, 5, 0.1, 0}, 10, 1}), std::invalid_argument);
  EXPECT_THROW(LocalSearch({{5, 0, 0.1, 0}, 10, 1}), std::invalid_argument);
  EXPECT_THROW(LocalSearch({{5, 5, 0.1, 0}, 1, 1}), std::invalid_argument);
  LocalSearch ok({{5, 5, 0.1, 0}, 10, 1});
  QuadraticObjective obj({}, {});
  EXPECT_THROW(ok.run(obj, WeightSetting(0)), std::invalid_argument);
}

TEST(LocalSearchTest, SpeculativeScreeningMatchesSequentialForAnyPoolWidth) {
  // Two objectives: a feasibility-heavy one (most probes decided infeasible
  // by the screen, like Phase 2's constraint gate) and an accepts-heavy one
  // (no infeasible screens, frequent accepts that strand speculative tails).
  for (const int infeasible_mod : {2, 1000}) {
    struct Run {
      LocalSearch::Result result;
      std::vector<std::tuple<long, long, LinkId, double, bool>> moves;
      std::vector<std::tuple<LinkId, int, int, double, double, bool, bool, WeightSetting>>
          events;
      std::vector<WeightSetting> finished;
      long screens = 0;
    };
    const auto run = [&](int width) {
      ThreadPool pool(width);
      LocalSearch::Config config = quick_config(11);
      config.phase = {4, 3, 0.01, 0};
      config.pool = width > 1 ? &pool : nullptr;
      LocalSearch search(config);
      Run r;
      search.set_on_move([&](const MoveRecord& m) {
        r.moves.emplace_back(m.iteration, m.evaluations, m.link, m.cost.lambda, m.restart);
      });
      search.set_observer([&](const PerturbationEvent& e) {
        r.events.emplace_back(e.link, e.new_weight_delay, e.new_weight_tput,
                              e.cost_before.lambda,
                              e.cost_after ? e.cost_after->lambda : -1.0,
                              e.cost_after.has_value(), e.accepted, *e.candidate);
      });
      ScreenedObjective obj({7, 3, 15, 9, 12, 4, 18, 6}, infeasible_mod);
      WeightSetting initial(8, 5);
      initial.set(TrafficClass::kDelay, 0, 2);  // 2 + 5 is feasible for both mods
      r.result = search.run(obj, initial);
      r.finished = obj.finished();
      r.screens = obj.screens();
      for (const std::thread::id id : obj.finish_threads())
        EXPECT_EQ(id, std::this_thread::get_id());
      return r;
    };

    const Run seq = run(1);
    ASSERT_GT(seq.result.accepted_moves, 0);
    ASSERT_FALSE(seq.finished.empty());
    // Sequential: exactly one screen per evaluation (probes, initial point
    // and restarts all screen once).
    EXPECT_EQ(seq.screens, seq.result.evaluations);
    for (const int width : {2, 8}) {
      SCOPED_TRACE(::testing::Message() << "mod " << infeasible_mod << " width " << width);
      const Run par = run(width);
      EXPECT_TRUE(par.result.best == seq.result.best);
      EXPECT_EQ(par.result.best_cost.lambda, seq.result.best_cost.lambda);
      EXPECT_EQ(par.result.iterations, seq.result.iterations);
      EXPECT_EQ(par.result.diversifications, seq.result.diversifications);
      EXPECT_EQ(par.result.evaluations, seq.result.evaluations);
      EXPECT_EQ(par.result.accepted_moves, seq.result.accepted_moves);
      EXPECT_EQ(par.moves, seq.moves);
      EXPECT_EQ(par.events, seq.events);
      // finish saw the same settings in the same order: deferred probes in a
      // stale speculative tail were never finished.
      EXPECT_EQ(par.finished, seq.finished);
      // Tails stranded by accepts were screened again after the accept.
      EXPECT_GT(par.screens, seq.screens);
    }
  }
}

// ------------------------------------------------------------ store

TEST(AcceptableStoreTest, KeepsEverythingBelowCapacity) {
  AcceptableStore store(10, 1);
  for (int i = 0; i < 5; ++i)
    store.offer(WeightSetting(2, i + 1), {static_cast<double>(i), 0.0});
  EXPECT_EQ(store.size(), 5u);
}

TEST(AcceptableStoreTest, BoundedByCapacity) {
  AcceptableStore store(8, 2);
  for (int i = 0; i < 100; ++i)
    store.offer(WeightSetting(2, (i % 19) + 1), {static_cast<double>(i), 0.0});
  EXPECT_EQ(store.size(), 8u);
}

TEST(AcceptableStoreTest, ReservoirKeepsOldAndNew) {
  AcceptableStore store(16, 3);
  for (int i = 0; i < 400; ++i)
    store.offer(WeightSetting(1, 1), {static_cast<double>(i), 0.0});
  // With reservoir sampling the retained indices should span early and late
  // offers (probability of all 16 being from one half is astronomically low).
  int early = 0, late = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.entry(i).cost.lambda < 200.0) ++early;
    else ++late;
  }
  EXPECT_GT(early, 0);
  EXPECT_GT(late, 0);
}

TEST(AcceptableStoreTest, ZeroCapacityRejected) {
  EXPECT_THROW(AcceptableStore(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dtr
