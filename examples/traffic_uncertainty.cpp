/// Traffic-uncertainty study (the Sec. V-F scenario as an API walkthrough):
/// compute regular and robust routings against BASE traffic matrices, then
/// stress both with (a) Gaussian estimation noise and (b) download hot-spot
/// surges, and report how post-failure SLA violations hold up.
///
///   ./traffic_uncertainty [seed] [trials]

#include <iostream>
#include <string>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "graph/topology.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "traffic/uncertainty.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dtr;
  std::uint64_t seed = 11;
  int trials = 20;
  cli::parse_or_exit("traffic_uncertainty",
                     {"traffic_uncertainty [seed] [trials]",
                      {},
                      {cli::value("seed", "", "topology and traffic seed (default 11)", seed),
                       cli::value("trials", "", "perturbed matrices per model (default 20)",
                                  trials)}},
                     argc, argv);

  Graph graph = make_rand_topo({.num_nodes = 16, .avg_degree = 5.0,
                                .capacity_mbps = 500.0, .seed = seed});
  EvalParams params;
  calibrate_delays_to_sla(graph, params.sla.theta_ms);
  ClassedTraffic base =
      split_by_class(make_gravity_traffic(graph, {.alpha = 1.0, .seed = seed + 1}), 0.30);
  scale_to_utilization(graph, base, {UtilizationTarget::Kind::kMax, 0.74});

  // Optimize against the BASE matrices only.
  const Evaluator base_evaluator(graph, base, params);
  RobustOptimizer optimizer(base_evaluator, default_optimizer_config(Effort::kQuick, seed));
  const OptimizeResult opt = optimizer.optimize();
  const auto scenarios = all_link_failures(graph);

  auto stress = [&](auto&& make_traffic, const char* label) {
    Rng rng(seed + 99);
    RunningStats regular_beta, robust_beta;
    for (int t = 0; t < trials; ++t) {
      const ClassedTraffic actual = make_traffic(rng);
      const Evaluator actual_evaluator(graph, actual, params);
      regular_beta.add(profile_failures(actual_evaluator, opt.regular, scenarios).beta());
      robust_beta.add(profile_failures(actual_evaluator, opt.robust, scenarios).beta());
    }
    std::cout << label << ": avg post-failure SLA violations over " << trials
              << " traffic draws\n";
    Table table({"routing", "mean (stddev)"});
    table.row().cell("regular").mean_std(regular_beta.mean(), regular_beta.stddev());
    table.row().cell("robust").mean_std(robust_beta.mean(), robust_beta.stddev());
    table.print(std::cout);
    std::cout << "\n";
  };

  // Baseline: the traffic actually matches the estimate.
  const FailureProfile reg_base = profile_failures(base_evaluator, opt.regular, scenarios);
  const FailureProfile rob_base = profile_failures(base_evaluator, opt.robust, scenarios);
  std::cout << "Base matrices: regular beta=" << format_double(reg_base.beta())
            << ", robust beta=" << format_double(rob_base.beta()) << "\n\n";

  stress(
      [&](Rng& rng) { return apply_gaussian_fluctuation(base, {.epsilon = 0.2}, rng); },
      "Gaussian fluctuation (epsilon=0.2, ~±40%)");

  stress(
      [&](Rng& rng) {
        return apply_hot_spot(base,
                              {.direction = HotSpotParams::Direction::kDownload,
                               .server_fraction = 0.1, .client_fraction = 0.5,
                               .scale_min = 2.0, .scale_max = 6.0},
                              rng);
      },
      "Download hot-spot (10% servers, 50% clients, x2-6 surges)");

  std::cout << "Robustness to failures computed from estimated matrices carries over\n"
               "to perturbed actual traffic — the paper's Sec. V-F conclusion.\n";
  return 0;
}
