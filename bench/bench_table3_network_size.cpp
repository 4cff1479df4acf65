/// Table III — "SLA violations in RandTopo (different network sizes)".
///
/// RandTopo with mean degree 5 at increasing node counts; robust ("R") vs.
/// regular ("NR") average and top-10% SLA violations across all single link
/// failures. Paper claim: the benefits of robust optimization persist or
/// grow with network size (more path diversity to exploit).
///
/// Scaling: paper sizes are {30, 50, 100}; at smoke/quick effort we run
/// {12, 16, 24} so the sweep finishes in minutes (DTR_EFFORT=full restores
/// the paper's sizes). Full effort additionally extends the axis with
/// generated Rocketfuel-style ISP cells at {500, 1000, 2000} nodes — the
/// scale tier the CSR graph core exists for; these share the campaign's
/// determinism contract but take hours at the paper's search budget, so
/// they only run when explicitly filtered in (--filter ISP) or when the
/// whole full-effort campaign is requested. Runs as a campaign — one cell
/// per size, sharded across workers; see bench_common.h for the standard
/// flags.

#include <algorithm>
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

  const std::vector<int> sizes = ctx.effort == Effort::kFull
                                     ? std::vector<int>{30, 50, 100}
                                     : std::vector<int>{12, 16, 24};

  Campaign campaign;
  campaign.name = "table3_network_size";
  campaign.effort = ctx.effort;
  campaign.seed = ctx.seed;
  for (int n : sizes) {
    CampaignCell cell;
    cell.spec = default_rand_spec(ctx.effort, ctx.seed);
    cell.spec.nodes = n;
    cell.spec.degree = 5.0;
    cell.spec.seed = ctx.seed + static_cast<std::uint64_t>(n);
    cell.id = cell.spec.label();
    cell.repeats = ctx.repeats;
    campaign.cells.push_back(std::move(cell));
  }
  if (ctx.effort == Effort::kFull) {
    for (int n : {500, 1000, 2000}) {
      CampaignCell cell;
      cell.spec.kind = TopologyKind::kIsp;
      cell.spec.isp_source = IspSource::kGenerated;
      cell.spec.nodes = n;
      cell.spec.isp_pops = std::max(6, n / 25);
      cell.spec.seed = ctx.seed + static_cast<std::uint64_t>(n);
      cell.id = cell.spec.label();
      cell.repeats = 1;  // one trial per size: the axis is scale, not variance
      campaign.cells.push_back(std::move(cell));
    }
  }
  if (!select_cells(args, campaign, std::cout)) return 0;

  print_context(std::cout, "Table III: SLA violations vs. network size", ctx);
  const CampaignResult result = run_bench_campaign(args, campaign);
  const int failed_cells = report_cell_errors(result);

  Table table({"Nodes", "links(arcs)", "avg R", "avg NR", "top-10% R", "top-10% NR"});
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty()) continue;
    const auto agg = [&](const char* name) { return aggregate_metric(cell, name); };
    table.row()
        .integer(static_cast<long long>(agg("nodes").mean))
        .integer(static_cast<long long>(agg("arcs").mean))
        .mean_std(agg("beta_r").mean, agg("beta_r").stddev)
        .mean_std(agg("beta_nr").mean, agg("beta_nr").stddev)
        .mean_std(agg("beta_top10_r").mean, agg("beta_top10_r").stddev)
        .mean_std(agg("beta_top10_nr").mean, agg("beta_top10_nr").stddev);
  }
  print_banner(std::cout,
               "Table III (paper: R << NR at every size; NR's violations grow "
               "faster with size than R's)");
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return failed_cells > 0 ? 1 : 0;
}
