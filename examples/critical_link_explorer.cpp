/// Critical-link explorer: exposes the paper's core methodology step by step.
/// Shows, for every link, the post-failure cost distribution statistics
/// (mean, left-tail mean), the resulting criticality rho (Eq. 8/9), the
/// normalized global ranking, and which links Algorithm 1 selects — plus how
/// the distribution-gap selection compares with random/load-based baselines.
///
///   ./critical_link_explorer [seed]

#include <algorithm>
#include <iostream>
#include <string>

#include "core/baseline_selectors.h"
#include "core/critical_selector.h"
#include "core/optimizer.h"
#include "graph/topology.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dtr;
  std::uint64_t seed = 5;
  cli::parse_or_exit("critical_link_explorer",
                     {"critical_link_explorer [seed]",
                      {},
                      {cli::value("seed", "", "topology and traffic seed (default 5)", seed)}},
                     argc, argv);

  Graph graph = make_rand_topo({.num_nodes = 14, .avg_degree = 5.0,
                                .capacity_mbps = 500.0, .seed = seed});
  EvalParams params;
  calibrate_delays_to_sla(graph, params.sla.theta_ms);
  ClassedTraffic traffic =
      split_by_class(make_gravity_traffic(graph, {.alpha = 1.0, .seed = seed + 1}), 0.30);
  scale_to_utilization(graph, traffic, {UtilizationTarget::Kind::kAverage, 0.55});
  const Evaluator evaluator(graph, traffic, params);

  // Run the optimizer once to drive Phases 1a/1b/1c and keep its estimates.
  OptimizerConfig config = default_optimizer_config(Effort::kQuick, seed);
  RobustOptimizer optimizer(evaluator, config);
  const OptimizeResult result = optimizer.optimize();

  const CriticalityEstimates& est = result.estimates;
  const CriticalSelection selection =
      select_critical_links(est, optimizer.critical_target_size());

  std::cout << "Per-link criticality (Eq. 8/9): rho = mean - left-tail mean of the\n"
               "post-failure cost distribution over acceptable routings.\n\n";
  Table table({"link", "endpoints", "mean Lambda", "tail Lambda", "rho_Lambda",
               "mean Phi", "tail Phi", "rho_Phi", "in Ec?"});
  for (LinkId l = 0; l < graph.num_links(); ++l) {
    const Arc& a = graph.arc(graph.link_arcs(l).front());
    const bool in_ec = std::find(selection.critical.begin(), selection.critical.end(),
                                 l) != selection.critical.end();
    table.row()
        .integer(l)
        .cell(std::to_string(a.src) + "-" + std::to_string(a.dst))
        .num(est.mean_lambda[l], 1)
        .num(est.tail_lambda[l], 1)
        .num(est.rho_lambda[l], 1)
        .num(est.mean_phi[l], 0)
        .num(est.tail_phi[l], 0)
        .num(est.rho_phi[l], 0)
        .cell(in_ec ? "YES" : "");
  }
  table.print(std::cout);

  std::cout << "\nAlgorithm 1 kept n1=" << selection.n1 << " Lambda-ranked and n2="
            << selection.n2 << " Phi-ranked links; expected normalized errors: "
            << format_double(selection.expected_error_lambda, 4) << " (Lambda), "
            << format_double(selection.expected_error_phi, 4) << " (Phi)\n";

  // Contrast with the prior-work selectors on the same instance.
  Rng rng(seed + 3);
  const auto random_sel =
      select_random_links(graph.num_links(), selection.critical.size(), rng);
  const auto load_sel = select_by_load(evaluator, result.regular, selection.critical.size());

  auto show = [&](const char* name, const std::vector<LinkId>& sel) {
    std::cout << name << ": {";
    for (std::size_t i = 0; i < sel.size(); ++i)
      std::cout << (i ? ", " : "") << sel[i];
    std::cout << "}\n";
  };
  std::cout << "\nSelector comparison (|Ec| = " << selection.critical.size() << "):\n";
  show("distribution-gap (ours)", selection.critical);
  show("random  [Yuan 03]      ", random_sel);
  show("load    [Fortz 03]     ", load_sel);
  std::cout << "\nRun bench_selector_ablation for the quantitative comparison.\n";
  return 0;
}
