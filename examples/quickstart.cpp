/// Quickstart: build a small network, generate two-class traffic, run the
/// two-phase robust DTR optimization and compare the regular vs. robust
/// routings across all single link failures.
///
///   ./quickstart [seed]
///
/// This is the 60-second tour of the public API:
///   topology  ->  traffic  ->  Evaluator  ->  RobustOptimizer  ->  metrics

#include <cstdio>
#include <iostream>
#include <string>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "graph/topology.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dtr;
  std::uint64_t seed = 42;
  cli::parse_or_exit("quickstart",
                     {"quickstart [seed]",
                      {},
                      {cli::value("seed", "", "topology and traffic seed (default 42)", seed)}},
                     argc, argv);

  // 1. A 16-node random topology with 2-edge-connectivity (no single link
  //    failure can partition it), delays calibrated to the 25 ms SLA bound.
  Graph graph = make_rand_topo({.num_nodes = 16, .avg_degree = 5.0,
                                .capacity_mbps = 500.0, .seed = seed});
  EvalParams params;  // theta=25ms, B1=100, B2=1, mu=0.95, kappa=1500B
  calibrate_delays_to_sla(graph, params.sla.theta_ms);

  // 2. Gravity-model traffic, 30% delay-sensitive, scaled so min-hop routing
  //    averages 43% link utilization (the paper's baseline load).
  ClassedTraffic traffic =
      split_by_class(make_gravity_traffic(graph, {.alpha = 1.0, .seed = seed + 1}), 0.30);
  scale_to_utilization(graph, traffic, {UtilizationTarget::Kind::kAverage, 0.43});

  // 3. The evaluator maps (weight setting, failure scenario) -> costs.
  const Evaluator evaluator(graph, traffic, params);

  // 4. Two-phase optimization: Phase 1 minimizes K_normal = <Lambda, Phi>;
  //    Phase 2 minimizes the compound failure cost over the critical links,
  //    without degrading normal-condition performance.
  RobustOptimizer optimizer(evaluator, default_optimizer_config(Effort::kQuick, seed));
  const OptimizeResult result = optimizer.optimize();

  std::cout << "Regular (Phase 1) normal cost:  " << to_string(result.regular_cost) << "\n";
  std::cout << "Robust  (Phase 2) normal cost:  " << to_string(result.robust_normal_cost)
            << "\n";
  std::cout << "Critical links |Ec| = " << result.critical.size() << " of "
            << graph.num_links() << " (ranking converged: "
            << (result.criticality_converged ? "yes" : "no") << ")\n";

  // 5. Judge both routings across ALL single link failures.
  const auto scenarios = all_link_failures(graph);
  const FailureProfile regular = profile_failures(evaluator, result.regular, scenarios);
  const FailureProfile robust = profile_failures(evaluator, result.robust, scenarios);

  Table table({"routing", "avg SLA violations", "top-10% violations", "sum Phi_fail"});
  table.row().cell("regular").num(regular.beta()).num(regular.beta_top()).num(
      regular.phi_sum(), 0);
  table.row().cell("robust").num(robust.beta()).num(robust.beta_top()).num(
      robust.phi_sum(), 0);
  table.print(std::cout);

  std::cout << "\nRobust optimization cut average post-failure SLA violations from "
            << format_double(regular.beta()) << " to " << format_double(robust.beta())
            << " while keeping normal-condition throughput cost within "
            << format_double(
                   (result.robust_normal_cost.phi / std::max(result.regular_cost.phi, 1e-9) -
                    1.0) * 100.0, 1)
            << "% of optimal.\n";
  return 0;
}
