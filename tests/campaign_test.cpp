#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/results.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtr::experiments {
namespace {

/// A tiny campaign mirroring the two bench shapes the artifact contract
/// covers: a table2-style cell (repeats + unavoidable floor) and a
/// fig6-style cell (fluctuated-TM stress block with per-index series).
Campaign tiny_campaign() {
  Campaign campaign;
  campaign.name = "test";
  campaign.effort = Effort::kSmoke;
  campaign.seed = 5;

  CampaignCell table_cell;
  table_cell.id = "rand8";
  table_cell.spec.kind = TopologyKind::kRand;
  table_cell.spec.nodes = 8;
  table_cell.spec.degree = 4.0;
  table_cell.spec.seed = 5;
  table_cell.repeats = 2;
  table_cell.unavoidable_floor = true;
  campaign.cells.push_back(table_cell);

  CampaignCell stress_cell;
  stress_cell.id = "rand8-stress";
  stress_cell.spec = table_cell.spec;
  stress_cell.repeats = 1;
  stress_cell.fluctuation.model = FluctuationSpec::Model::kGaussian;
  stress_cell.fluctuation.trials = 3;
  campaign.cells.push_back(stress_cell);

  return campaign;
}

TEST(CampaignTest, JsonBytesIdenticalAcrossExecutionShapes) {
  const Campaign campaign = tiny_campaign();
  // One worker sequential, eight cell-parallel shards, and sequential cells
  // with an eight-way inner engine: identical CampaignResult, identical
  // artifact bytes.
  const CampaignResult sequential = run_campaign(campaign, {1, 1});
  const CampaignResult cell_parallel = run_campaign(campaign, {8, 1});
  const CampaignResult inner_parallel = run_campaign(campaign, {1, 8});

  for (const CampaignResult* r : {&sequential, &cell_parallel, &inner_parallel}) {
    ASSERT_EQ(r->cells.size(), campaign.cells.size());
    EXPECT_EQ(r->cells[0].id, "rand8");
    EXPECT_EQ(r->cells[1].id, "rand8-stress");
    EXPECT_TRUE(r->cells[0].error.empty()) << r->cells[0].error;
    EXPECT_TRUE(r->cells[1].error.empty()) << r->cells[1].error;
  }

  const std::string a = campaign_json(sequential);
  const std::string b = campaign_json(cell_parallel);
  const std::string c = campaign_json(inner_parallel);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a.find("\"schema\": \"dtr.campaign.v1\""), std::string::npos);
  // The fig6-style series made it into the artifact.
  EXPECT_NE(a.find("\"pert_violations_r_mean\""), std::string::npos);
}

TEST(CampaignTest, FluctuationIncrementalMatchesFullRecomputeBytes) {
  // evaluate_fluctuations builds one Evaluator per trial with the caller's
  // config. The incremental engine (base cache, delta-SPF, replay) must give
  // byte-identical stress series to the full-recompute oracle, sequentially
  // and on a pool.
  WorkloadSpec spec;
  spec.kind = TopologyKind::kRand;
  spec.nodes = 10;
  spec.degree = 4.0;
  spec.seed = 11;
  const Workload w = make_workload(spec);

  Rng rng(3);
  std::vector<WeightSetting> routings(2, WeightSetting(w.graph.num_links()));
  for (WeightSetting& r : routings) randomize_weights(r, 20, rng);
  const std::vector<LinkId> top = {0, 1, 2, 3};

  FluctuationSpec fluct;
  fluct.model = FluctuationSpec::Model::kGaussian;
  fluct.trials = 4;

  EvaluatorConfig incremental_cfg;
  EvaluatorConfig reference_cfg;
  reference_cfg.incremental = false;

  ThreadPool pool(4);
  const std::vector<StressSeries> reference =
      evaluate_fluctuations(w, routings, top, fluct, 77, nullptr, reference_cfg);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::vector<StressSeries> incremental =
        evaluate_fluctuations(w, routings, top, fluct, 77, p, incremental_cfg);
    ASSERT_EQ(incremental.size(), reference.size());
    const auto bytes_equal = [](const std::vector<double>& x,
                                const std::vector<double>& y) {
      return x.size() == y.size() &&
             (x.empty() ||
              std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
    };
    for (std::size_t r = 0; r < incremental.size(); ++r) {
      const StressSeries& a = incremental[r];
      EXPECT_TRUE(bytes_equal(a.mean_violations, reference[r].mean_violations));
      EXPECT_TRUE(bytes_equal(a.std_violations, reference[r].std_violations));
      EXPECT_TRUE(bytes_equal(a.mean_phi, reference[r].mean_phi));
      EXPECT_TRUE(bytes_equal(a.std_phi, reference[r].std_phi));
    }
  }
}

TEST(CampaignTest, StandardMetricsArePresentAndSane) {
  Campaign campaign = tiny_campaign();
  campaign.cells.resize(1);
  const CampaignResult result = run_campaign(campaign, {1, 1});
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  ASSERT_TRUE(cell.error.empty()) << cell.error;
  ASSERT_EQ(cell.reps.size(), 2u);
  for (const MetricRow& rep : cell.reps) {
    EXPECT_EQ(rep.get("nodes"), 8.0);
    EXPECT_GT(rep.get("links"), 0.0);
    EXPECT_GE(rep.get("beta_r", -1.0), 0.0);
    EXPECT_GE(rep.get("beta_top10_nr", -1.0), rep.get("beta_nr") - 1e-9);
    EXPECT_GE(rep.get("beta_floor", -1.0), 0.0);
  }
  // Rep seeds follow the stride contract.
  EXPECT_EQ(cell.reps[0].seed, 5u);
  EXPECT_EQ(cell.reps[1].seed, 5u + 101u);
  const Aggregate beta = aggregate_metric(cell, "beta_r");
  EXPECT_EQ(beta.count, 2u);
}

TEST(CampaignTest, ThrowingCellIsCapturedWithoutAbortingTheCampaign) {
  Campaign campaign = tiny_campaign();
  CampaignCell bomb;
  bomb.id = "bomb";
  bomb.repeats = 1;
  bomb.body = [](const CampaignCell&, Effort, std::uint64_t,
                 const CellContext&) -> MetricRow {
    throw std::runtime_error("cell exploded");
  };
  // Insert in the middle so healthy cells run on both sides of the failure.
  campaign.cells.insert(campaign.cells.begin() + 1, bomb);

  const CampaignResult result = run_campaign(campaign, {4, 1});
  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_TRUE(result.cells[0].error.empty());
  EXPECT_EQ(result.cells[1].id, "bomb");
  EXPECT_EQ(result.cells[1].error, "cell exploded");
  EXPECT_TRUE(result.cells[1].reps.empty());
  EXPECT_TRUE(result.cells[2].error.empty());
  EXPECT_FALSE(result.cells[2].reps.empty());
  // The artifact records the failure as a string, not a crash.
  EXPECT_NE(campaign_json(result).find("\"error\": \"cell exploded\""),
            std::string::npos);
}

TEST(CampaignTest, CustomBodyAggregates) {
  Campaign campaign;
  campaign.effort = Effort::kSmoke;
  CampaignCell cell;
  cell.id = "synthetic";
  cell.repeats = 3;
  cell.spec.seed = 10;
  cell.seed_stride = 1;
  cell.body = [](const CampaignCell&, Effort, std::uint64_t seed,
                 const CellContext&) {
    MetricRow row;
    row.seed = seed;
    row.values = {{"m", static_cast<double>(seed)}};
    return row;
  };
  campaign.cells.push_back(cell);

  const CampaignResult result = run_campaign(campaign, {1, 1});
  const Aggregate agg = aggregate_metric(result.cells[0], "m");
  EXPECT_EQ(agg.count, 3u);
  EXPECT_DOUBLE_EQ(agg.mean, 11.0);  // seeds 10, 11, 12
  EXPECT_DOUBLE_EQ(agg.stddev, 1.0);
  const auto all = aggregate_metrics(result.cells[0]);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "m");
}

TEST(CampaignTest, NestedParallelismGuard) {
  Campaign campaign;
  CampaignCell cell;
  cell.id = "probe";
  cell.repeats = 1;
  cell.body = [](const CampaignCell&, Effort, std::uint64_t, const CellContext& ctx) {
    MetricRow row;
    row.values = {{"inner_threads", static_cast<double>(ctx.inner_threads)},
                  {"has_pool", ctx.inner_pool != nullptr ? 1.0 : 0.0}};
    return row;
  };
  campaign.cells.push_back(cell);
  campaign.cells.push_back(cell);
  campaign.cells[1].id = "probe2";

  // Cells in parallel => inner engine forced sequential.
  const CampaignResult parallel_cells = run_campaign(campaign, {2, 8});
  EXPECT_EQ(parallel_cells.cells[0].reps[0].get("inner_threads"), 1.0);
  EXPECT_EQ(parallel_cells.cells[0].reps[0].get("has_pool"), 0.0);
  EXPECT_EQ(parallel_cells.cell_workers, 2);

  // Sequential cells => the inner pool engages.
  const CampaignResult inner = run_campaign(campaign, {1, 4});
  EXPECT_EQ(inner.cells[0].reps[0].get("inner_threads"), 4.0);
  EXPECT_EQ(inner.cells[0].reps[0].get("has_pool"), 1.0);

  // Worker count never exceeds the cell count.
  const CampaignResult clamped = run_campaign(campaign, {16, 1});
  EXPECT_EQ(clamped.cell_workers, 2);

  // Cell-level parallelism the clamp can't use flows to the inner engine.
  Campaign single;
  single.cells.push_back(campaign.cells[0]);
  const CampaignResult redirected = run_campaign(single, {4, 1});
  EXPECT_EQ(redirected.cell_workers, 1);
  EXPECT_EQ(redirected.cells[0].reps[0].get("inner_threads"), 4.0);

  // An explicit fully-sequential request stays sequential.
  const CampaignResult sequential = run_campaign(single, {1, 1});
  EXPECT_EQ(sequential.cells[0].reps[0].get("inner_threads"), 1.0);
}

TEST(CampaignTest, SpecParserBuildsCells) {
  std::istringstream in(R"(# demo spec
name = demo
effort = smoke
seed = 9

[cell]
id = a
topology = near
nodes = 12
degree = 3.5
repeats = 4
floor = 1

[cell]
topology = rand
max_util = 0.9
seed = 77
fluctuation = hotspot
trials = 8
direction = upload
)");
  const Campaign campaign = parse_campaign_spec(in);
  EXPECT_EQ(campaign.name, "demo");
  EXPECT_EQ(campaign.effort, Effort::kSmoke);
  EXPECT_EQ(campaign.seed, 9u);
  ASSERT_EQ(campaign.cells.size(), 2u);

  const CampaignCell& a = campaign.cells[0];
  EXPECT_EQ(a.id, "a");
  EXPECT_EQ(a.spec.kind, TopologyKind::kNear);
  EXPECT_EQ(a.spec.nodes, 12);
  EXPECT_DOUBLE_EQ(a.spec.degree, 3.5);
  EXPECT_EQ(a.spec.seed, 9u);  // inherited from the campaign seed
  EXPECT_EQ(a.repeats, 4);
  EXPECT_TRUE(a.unavoidable_floor);

  const CampaignCell& b = campaign.cells[1];
  EXPECT_EQ(b.id, "RandTopo[30]/1");  // defaulted id ('#' would read as comment)
  EXPECT_EQ(b.spec.util.kind, UtilizationTarget::Kind::kMax);
  EXPECT_EQ(b.spec.seed, 77u);
  EXPECT_EQ(b.fluctuation.model, FluctuationSpec::Model::kHotSpot);
  EXPECT_EQ(b.fluctuation.trials, 8);
  EXPECT_EQ(b.fluctuation.hot_spot.direction, HotSpotParams::Direction::kUpload);
}

TEST(CampaignTest, SpecParserRejectsMalformedInput) {
  const auto expect_error = [](const char* text, const char* needle) {
    std::istringstream in(text);
    try {
      parse_campaign_spec(in);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("bogus_key = 1\n", "unknown campaign key");
  expect_error("[cell]\nbogus = 1\n", "unknown cell key");
  expect_error("[cell]\nnodes = twelve\n", "bad integer");
  expect_error("[cell]\nnodes = 12x7\n", "bad integer");  // no silent truncation
  expect_error("[cell]\ndegree = 0.1.5\n", "bad number");
  expect_error("effort = warp\n", "unknown value for key 'effort'");
  expect_error("no equals here\n", "expected key = value");
  expect_error("seed = -1\n", "bad seed");  // stoull would wrap mod 2^64
  expect_error("[cell]\nrepeats = 0\n", "repeats must be in [1, 1000]");
  expect_error("[cell]\nrepeats = 2000000000\n",
               "repeats must be in [1, 1000], got 2000000000");
  // Two cells under one id would make --filter and the artifact's keys
  // ambiguous.
  expect_error("[cell]\nid = a\n[cell]\nid = b\n[cell]\nid = a\n",
               "cell 'a': duplicate id");
  // A non-positive trial count or an out-of-range stressed share would skip
  // the cell's stress block silently.
  expect_error("[cell]\ntrials = -4\n", "trials must be >= 1");
  expect_error("[cell]\ntrials = 0\n", "trials must be >= 1");
  expect_error("[cell]\ntop_fraction = -1\n", "top_fraction must be");
  expect_error("[cell]\ntop_fraction = 1e300\n", "top_fraction must be");
  // The fluctuation models' own ranges, checked before any cell runs.
  expect_error("[cell]\nepsilon = -5\n", "line 2: epsilon must be >= 0");
  expect_error("[cell]\nserver_fraction = 5\n", "server_fraction must be in (0, 1]");
  expect_error("[cell]\nserver_fraction = 0\n", "server_fraction must be in (0, 1]");
  expect_error("[cell]\nclient_fraction = -3\n", "client_fraction must be in (0, 1]");
  expect_error("[cell]\nscale_min = 1\n", "scale_min must be > 1");
  expect_error("[cell]\nscale_min = 3\nscale_max = 2.5\n",
               "scale_max must be >= scale_min");
  expect_error("[cell]\nid = big\nscale_min = 7\n",  // default scale_max is 6
               "cell 'big': scale_max must be >= scale_min");
  // A model without a trial count would write no stress block.
  expect_error("[cell]\nid = g\nfluctuation = gaussian\n",
               "cell 'g': trials required");
  expect_error("[cell]\nfluctuation = hotspot\nepsilon = 0.1\n", "trials required");
  // stod accepts nan/inf; NaN would slip past every range check.
  expect_error("[cell]\ncritical_fraction = nan\n", "line 2: bad number for key");
  expect_error("[cell]\nobjective = downtime\nharden_period_min = inf\n", "bad number");
  // Line numbers are reported.
  expect_error("name = x\n\nbogus_key = 1\n", "line 3");
}

TEST(CampaignTest, CampaignRunFlags) {
  CampaignRunArgs args;
  const cli::Command command{"bench", campaign_run_flags(args)};
  const char* argv[] = {"bench",   "--workers", "4096", "--inner-threads", "0",
                        "--filter", "rand",     "--list", "--no-incremental"};
  EXPECT_EQ(cli::parse(command, 9, argv), cli::Parsed::kOk);
  EXPECT_EQ(args.options.workers, 4096);
  EXPECT_EQ(args.options.inner_threads, 0);
  EXPECT_EQ(args.filter, "rand");
  EXPECT_TRUE(args.list);
  EXPECT_FALSE(args.options.eval_config.incremental);
  EXPECT_EQ(CampaignRunArgs{}.options.workers, 0);  // hardware concurrency by default
  for (const char* bad : {"4097", "-1", "eight", "8x", ""}) {
    const char* bad_argv[] = {"bench", "--workers", bad};
    EXPECT_THROW(cli::parse(command, 3, bad_argv), cli::Error) << bad;
  }
}

TEST(CampaignTest, FilterCells) {
  Campaign campaign = tiny_campaign();
  filter_cells(campaign, "stress");
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_EQ(campaign.cells[0].id, "rand8-stress");
  filter_cells(campaign, "");
  EXPECT_EQ(campaign.cells.size(), 1u);  // empty filter keeps everything
  filter_cells(campaign, "zzz");
  EXPECT_TRUE(campaign.cells.empty());
}

TEST(CampaignTest, EmptyCampaignProducesEmptyResult) {
  Campaign campaign;
  campaign.name = "empty";
  const CampaignResult result = run_campaign(campaign, {0, 1});
  EXPECT_TRUE(result.cells.empty());
  EXPECT_NE(campaign_json(result).find("\"cells\": []"), std::string::npos);
}

TEST(CampaignTest, WorstFailureLinksIsADeterministicTotalOrder) {
  FailureProfile profile;
  profile.violations = {1.0, 5.0, 5.0, 0.0, 3.0};
  profile.phi = {10.0, 2.0, 7.0, 1.0, 4.0};
  const std::vector<LinkId> top = worst_failure_links(profile, 0.4);
  // 5-violation links first (phi breaks the tie), then the 3-violation one.
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 1u);
  // At least two stressed failures even for tiny fractions.
  EXPECT_EQ(worst_failure_links(profile, 0.01).size(), 2u);
  EXPECT_TRUE(worst_failure_links({}, 0.1).empty());
  // Outside [0, 1] the share has no meaning (and ceil(fraction * n) would
  // not fit a size_t).
  for (const double bad : {-1.0, 1.5, 1e300, std::nan("")})
    EXPECT_THROW(worst_failure_links(profile, bad), std::invalid_argument) << bad;
}

}  // namespace
}  // namespace dtr::experiments
