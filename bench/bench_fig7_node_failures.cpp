/// Fig. 7 — single NODE failures vs. single link failures (Sec. V-F):
/// three routings on RandTopo at 80% max utilization:
///   NR         — regular optimization (failure-oblivious)
///   R(link)    — robust against all single LINK failures (the paper's method)
///   R(node)    — robust against all single NODE failures ("exhaustive"
///                heuristic: the critical set is every node scenario)
/// Series:
///   (a)/(b) all single node failures, sorted: violations and phi*
///   (c)/(d) top-10% link failures under R(node) vs R(link)
/// Paper claims: R(link) also protects against node failures (no added
/// fragility); R(node) does NOT substitute for R(link) on link failures.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.h"

namespace {

using namespace dtr;
using namespace dtr::bench;

FailureProfile node_failure_profile(const Evaluator& evaluator, const WeightSetting& w) {
  const auto scenarios = all_node_failures(evaluator.graph());
  return profile_failures(evaluator, w, scenarios);
}

}  // namespace

int main() {
  using namespace dtr;
  using namespace dtr::bench;
  const BenchContext ctx = context_from_env();
  print_context(std::cout, "Fig. 7: node-failure robustness", ctx);

  WorkloadSpec spec = default_rand_spec(ctx.effort, ctx.seed);
  spec.util = {UtilizationTarget::Kind::kMax, 0.80};
  const Workload w = make_workload(spec);
  const Evaluator evaluator(w.graph, w.traffic, w.params);

  // R(link): the paper's robust optimization.
  const OptimizeResult link_opt = run_optimizer(evaluator, ctx.effort, ctx.seed);

  // R(node): Phase 2 target = all single node failures (linear scenario
  // count makes the exhaustive variant feasible, as in the paper). We reuse
  // the optimizer's Phase 1 via selector=kFullSearch then re-run Phase 2 by
  // swapping the scenario set — expressed here by running a dedicated
  // optimizer whose "critical" failures are node scenarios.
  OptimizeResult node_opt = link_opt;  // same Phase 1 output
  {
    // Constrained local search over node-failure scenarios.
    const auto scenarios = all_node_failures(w.graph);
    // Reuse the robust machinery by evaluating manually: run a Phase-2-style
    // search seeded from the regular routing.
    OptimizerConfig config = default_optimizer_config(ctx.effort, ctx.seed);
    class NodeObjective final : public SearchObjective {
     public:
      NodeObjective(const Evaluator& ev, std::vector<FailureScenario> scen,
                    CostPair star, double chi)
          : ev_(ev), scen_(std::move(scen)), star_(star), chi_(chi) {}
      std::optional<CostPair> finish(const WeightSetting& ws,
                                     const CostPair* incumbent) override {
        const CostPair normal = ev_.evaluate(ws).cost();
        const LexicographicOrder ord;
        if (!ord.values_equal(normal.lambda, star_.lambda)) return std::nullopt;
        if (normal.phi > (1.0 + chi_) * star_.phi + ord.abs_tol()) return std::nullopt;
        return ev_.sweep(ws, scen_, {.abort_bound = incumbent}).cost();
      }
     private:
      const Evaluator& ev_;
      std::vector<FailureScenario> scen_;
      CostPair star_;
      double chi_;
    } objective(evaluator, scenarios, link_opt.regular_cost, config.chi);

    LocalSearch search({config.phase2, config.wmax, ctx.seed + 5});
    const auto result = search.run(objective, link_opt.regular);
    node_opt.robust = result.best;
  }

  // ---------------- (a)/(b): all single node failures --------------------
  const FailureProfile nr_nodes = node_failure_profile(evaluator, link_opt.regular);
  const FailureProfile rlink_nodes = node_failure_profile(evaluator, link_opt.robust);
  const FailureProfile rnode_nodes = node_failure_profile(evaluator, node_opt.robust);
  {
    const auto nr_v = sorted_desc(nr_nodes.violations);
    const auto rl_v = sorted_desc(rlink_nodes.violations);
    const auto rn_v = sorted_desc(rnode_nodes.violations);
    const auto nr_p = sorted_desc(nr_nodes.normalized_phi());
    const auto rl_p = sorted_desc(rlink_nodes.normalized_phi());
    const auto rn_p = sorted_desc(rnode_nodes.normalized_phi());
    Table table({"sorted node idx", "R(node)", "R(link)", "NR", "phi* R(node)",
                 "phi* R(link)", "phi* NR"});
    for (std::size_t i = 0; i < nr_v.size(); ++i) {
      table.row()
          .integer(static_cast<long long>(i))
          .num(rn_v[i], 0)
          .num(rl_v[i], 0)
          .num(nr_v[i], 0)
          .num(rn_p[i], 3)
          .num(rl_p[i], 3)
          .num(nr_p[i], 3);
    }
    print_banner(std::cout,
                 "Fig. 7(a)(b): all single node failures (paper: R(node) best, "
                 "R(link) close behind, NR far worse)");
    table.print(std::cout);
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
    std::cout << "\nbeta over node failures: R(node)=" << format_double(rnode_nodes.beta())
              << " R(link)=" << format_double(rlink_nodes.beta())
              << " NR=" << format_double(nr_nodes.beta()) << "\n";
  }

  // ---------------- (c)/(d): top-10% link failures -----------------------
  {
    const FailureProfile rlink_links = link_failure_profile(evaluator, link_opt.robust);
    const FailureProfile rnode_links = link_failure_profile(evaluator, node_opt.robust);
    // Top-10% worst link failures by R(node)'s violations (the exposure the
    // paper highlights).
    std::vector<std::size_t> order(rnode_links.violations.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rnode_links.violations[a] > rnode_links.violations[b];
    });
    const std::size_t top = std::max<std::size_t>(2, order.size() / 10 + 1);
    Table table({"top link-failure idx", "R(node)", "R(link)", "phi* R(node)",
                 "phi* R(link)"});
    const double denom = std::max(rnode_links.phi_uncap, 1e-9);
    for (std::size_t i = 0; i < top; ++i) {
      const std::size_t s = order[i];
      table.row()
          .integer(static_cast<long long>(i))
          .num(rnode_links.violations[s], 0)
          .num(rlink_links.violations[s], 0)
          .num(rnode_links.phi[s] / denom, 3)
          .num(rlink_links.phi[s] / denom, 3);
    }
    print_banner(std::cout,
                 "Fig. 7(c)(d): worst link failures (paper: R(node) can fail "
                 "badly on link failures; R(link) stays protected)");
    table.print(std::cout);
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
    std::cout << "\nbeta over link failures: R(node)=" << format_double(rnode_links.beta())
              << " R(link)=" << format_double(rlink_links.beta()) << "\n";
  }
  return 0;
}
