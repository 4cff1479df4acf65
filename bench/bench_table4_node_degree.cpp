/// Table IV — "SLA violations in 30-node RandTopo (different mean degrees)".
///
/// Fixed node count, mean degree swept over {4, 6, 8}: more links means more
/// path diversity for the robust search to exploit. Paper claim: robust
/// gains persist/increase with degree; the regular routing stays fragile.
///
/// Runs as a campaign — one cell per degree, sharded across workers; see
/// bench_common.h for the standard flags.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dtr;
  using namespace dtr::bench;
  const CampaignRunArgs args = parse_bench_args(argc, argv);
  const BenchContext ctx = context_from_env();

  const std::vector<double> degrees{4.0, 6.0, 8.0};

  Campaign campaign;
  campaign.name = "table4_node_degree";
  campaign.effort = ctx.effort;
  campaign.seed = ctx.seed;
  for (double degree : degrees) {
    CampaignCell cell;
    cell.spec = default_rand_spec(ctx.effort, ctx.seed);
    cell.spec.degree = degree;
    cell.spec.seed = ctx.seed + static_cast<std::uint64_t>(degree * 10);
    cell.id = "degree=" + format_double(degree, 0);
    cell.repeats = ctx.repeats;
    campaign.cells.push_back(std::move(cell));
  }
  if (!select_cells(args, campaign, std::cout)) return 0;

  print_context(std::cout, "Table IV: SLA violations vs. mean node degree", ctx);
  const CampaignResult result = run_bench_campaign(args, campaign);
  const int failed_cells = report_cell_errors(result);

  Table table({"Mean degree", "links(arcs)", "avg R", "avg NR", "top-10% R",
               "top-10% NR"});
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    if (!cell.error.empty()) continue;
    const auto agg = [&](const char* name) { return aggregate_metric(cell, name); };
    table.row()
        .num(campaign.cells[i].spec.degree, 0)
        .integer(static_cast<long long>(agg("arcs").mean))
        .mean_std(agg("beta_r").mean, agg("beta_r").stddev)
        .mean_std(agg("beta_nr").mean, agg("beta_nr").stddev)
        .mean_std(agg("beta_top10_r").mean, agg("beta_top10_r").stddev)
        .mean_std(agg("beta_top10_nr").mean, agg("beta_top10_nr").stddev);
  }
  print_banner(std::cout,
               "Table IV (paper: higher degree -> more alternate paths -> "
               "robust routing approaches zero violations)");
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return failed_cells > 0 ? 1 : 0;
}
