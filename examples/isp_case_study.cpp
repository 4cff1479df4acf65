/// ISP backbone case study: runs robust DTR optimization on the embedded
/// 16-city / 70-arc North-American backbone and prints a per-failure report
/// naming the cities on each end of every link — the view a network operator
/// would act on.
///
///   ./isp_case_study [seed]

#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "graph/isp.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace dtr;
  std::uint64_t seed = 7;
  cli::parse_or_exit("isp_case_study",
                     {"isp_case_study [seed]",
                      {},
                      {cli::value("seed", "", "traffic seed (default 7)", seed)}},
                     argc, argv);

  IspTopology isp = make_isp_backbone();
  EvalParams params;  // theta = 25ms: coast-to-coast SLA

  ClassedTraffic traffic = split_by_class(
      make_gravity_traffic(isp.graph, {.alpha = 1.0, .seed = seed}), 0.30);
  scale_to_utilization(isp.graph, traffic, {UtilizationTarget::Kind::kAverage, 0.43});

  const Evaluator evaluator(isp.graph, traffic, params);
  RobustOptimizer optimizer(evaluator, default_optimizer_config(Effort::kQuick, seed));
  const OptimizeResult result = optimizer.optimize();

  auto link_name = [&](LinkId l) {
    const Arc& a = isp.graph.arc(isp.graph.link_arcs(l).front());
    return isp.city_names[a.src] + "--" + isp.city_names[a.dst];
  };

  std::cout << "ISP backbone: " << isp.graph.num_nodes() << " PoPs, "
            << isp.graph.num_arcs() << " directed links\n";
  std::cout << "Regular normal cost: " << to_string(result.regular_cost) << "\n";
  std::cout << "Robust  normal cost: " << to_string(result.robust_normal_cost) << "\n\n";

  std::cout << "Critical links (Phase 1c):\n";
  for (LinkId l : result.critical) std::cout << "  " << link_name(l) << "\n";

  const auto scenarios = all_link_failures(isp.graph);
  const FailureProfile regular = profile_failures(evaluator, result.regular, scenarios);
  const FailureProfile robust = profile_failures(evaluator, result.robust, scenarios);

  // Per-failure report sorted by regular-routing damage.
  std::vector<std::size_t> order(scenarios.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return regular.violations[a] > regular.violations[b];
  });

  Table table({"failed link", "violations (regular)", "violations (robust)",
               "Phi_fail (regular)", "Phi_fail (robust)"});
  for (std::size_t i = 0; i < std::min<std::size_t>(order.size(), 12); ++i) {
    const std::size_t s = order[i];
    table.row()
        .cell(link_name(scenarios[s].id))
        .num(regular.violations[s], 0)
        .num(robust.violations[s], 0)
        .num(regular.phi[s], 0)
        .num(robust.phi[s], 0);
  }
  std::cout << "\nWorst link failures (by regular-routing SLA violations):\n";
  table.print(std::cout);

  std::cout << "\nSummary: avg violations regular=" << format_double(regular.beta())
            << " robust=" << format_double(robust.beta())
            << "; top-10% regular=" << format_double(regular.beta_top())
            << " robust=" << format_double(robust.beta_top()) << "\n";
  return 0;
}
