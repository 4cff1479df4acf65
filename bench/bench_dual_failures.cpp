/// Extension bench — multiple (dual) link failures (Sec. V-F footnote 16:
/// the single-link-robust routing's advantage "was also observed for other
/// types of failure patterns, e.g., multiple link failures").
///
/// Samples random pairs of simultaneous link failures and compares the
/// regular and (single-link-)robust routings on violations. Disconnections
/// are possible under dual failures even in 2-edge-connected graphs, so the
/// unavoidable floor is reported alongside.

#include <iostream>

#include "bench_common.h"
#include "util/stats.h"

int main() {
  using namespace dtr;
  using namespace dtr::bench;
  const BenchContext ctx = context_from_env();
  print_context(std::cout, "Extension: dual-link failures (footnote 16)", ctx);

  const std::size_t pair_samples = ctx.effort == Effort::kFull ? 200 : 60;
  RunningStats beta_r, beta_nr, top_r, top_nr, floor;

  for (int rep = 0; rep < ctx.repeats; ++rep) {
    WorkloadSpec spec = default_rand_spec(ctx.effort, ctx.seed);
    spec.util = {UtilizationTarget::Kind::kAverage, 0.50};
    spec.seed = ctx.seed + static_cast<std::uint64_t>(rep) * 101;
    const Workload w = make_workload(spec);
    const Evaluator evaluator(w.graph, w.traffic, w.params);
    const OptimizeResult r = run_optimizer(evaluator, ctx.effort, spec.seed);

    Rng rng(spec.seed + 13);
    const auto scenarios = sample_k_link_failures(w.graph, 2, pair_samples, rng);
    const FailureProfile robust = profile_failures(evaluator, r.robust, scenarios);
    const FailureProfile regular = profile_failures(evaluator, r.regular, scenarios);
    beta_r.add(robust.beta());
    beta_nr.add(regular.beta());
    top_r.add(robust.beta_top(0.10));
    top_nr.add(regular.beta_top(0.10));
    floor.add(mean(unavoidable_violation_profile(evaluator, scenarios)));
  }

  Table table({"routing", "avg violations", "top-10%"});
  table.row().cell("robust (single-link-optimized)").mean_std(beta_r.mean(),
                                                              beta_r.stddev())
      .mean_std(top_r.mean(), top_r.stddev());
  table.row().cell("regular").mean_std(beta_nr.mean(), beta_nr.stddev())
      .mean_std(top_nr.mean(), top_nr.stddev());
  print_banner(std::cout,
               "Dual-link failures (paper: single-link robustness carries over; "
               "no added fragility)");
  table.print(std::cout);
  std::cout << "\nUnavoidable floor (propagation/disconnection lower bound): "
            << format_double(floor.mean()) << " (std " << format_double(floor.stddev())
            << ")\n";
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
