/// Table II — "Number of SLA violations across topologies", plus Fig. 3's
/// per-failure profiles and the Sec. V-B NearTopo link-resizing experiment.
///
/// For each topology: compare robust ("R") vs. regular ("NR") routings on
///   - average SLA violations across all single link failures
///   - average violations over the worst top-10% of failures
///   - normal-condition cost degradation of throughput-sensitive traffic.
///
/// Runs as a campaign: one cell per topology (plus the resized-NearTopo
/// extension cell), sharded across workers; --json emits the
/// schema-versioned artifact (see bench_common.h for the standard flags).

#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>

#include "bench_common.h"

namespace {

using namespace dtr;
using namespace dtr::bench;

constexpr const char* kResizedSuffix = "-resized";

/// Sec. V-B extension setup: upgrade NearTopo's congested core links so
/// normal-condition utilization drops below 90%, then let the campaign
/// re-optimize against the resized graph.
std::shared_ptr<const Graph> make_resized_near(const BenchContext& ctx,
                                               const WorkloadSpec& near_spec) {
  Workload w = make_workload(near_spec);
  const Evaluator evaluator(w.graph, w.traffic, w.params);
  const OptimizeResult r = run_optimizer(evaluator, ctx.effort, near_spec.seed);
  const EvalResult normal =
      evaluator.evaluate(r.regular, FailureScenario::none(), EvalDetail::kFull);
  int resized = 0;
  for (LinkId l = 0; l < w.graph.num_links(); ++l) {
    double util = 0.0;
    for (ArcId a : w.graph.link_arcs(l))
      util = std::max(util, normal.arc_utilization[a]);
    if (util > 0.90) {
      w.graph.scale_link_capacity(l, util / 0.90 * 1.05);
      ++resized;
    }
  }
  std::cout << "NearTopo resize: upgraded " << resized
            << " congested links (>90% normal-condition utilization)\n";
  return std::make_shared<Graph>(std::move(w.graph));
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignRunArgs args = parse_bench_args(argc, argv);
  const BenchContext ctx = context_from_env();

  Campaign campaign;
  campaign.name = "table2_topologies";
  campaign.effort = ctx.effort;
  campaign.seed = ctx.seed;
  for (const WorkloadSpec& spec : paper_topologies(ctx.effort, ctx.seed)) {
    CampaignCell cell;
    cell.id = spec.label();
    cell.spec = spec;
    cell.repeats = ctx.repeats;
    cell.unavoidable_floor = true;
    campaign.cells.push_back(std::move(cell));
  }
  {
    const WorkloadSpec near_spec = paper_topologies(ctx.effort, ctx.seed)[1];
    CampaignCell cell;
    cell.id = near_spec.label() + kResizedSuffix;
    cell.spec = near_spec;
    cell.repeats = ctx.repeats;
    campaign.cells.push_back(std::move(cell));
  }
  if (!select_cells(args, campaign, std::cout)) return 0;

  print_context(std::cout, "Table II: SLA violations across topologies", ctx);
  // The resize setup costs one optimizer run; only pay it if the extension
  // cell survived the filter.
  for (CampaignCell& cell : campaign.cells)
    if (cell.id.ends_with(kResizedSuffix))
      cell.graph_override = make_resized_near(ctx, cell.spec);

  const CampaignResult result = run_bench_campaign(args, campaign);
  const int failed_cells = report_cell_errors(result);

  Table table({"Topology", "avg violations R", "avg violations NR", "top-10% R",
               "top-10% NR", "Phi degradation (%)", "unavoidable floor"});
  Table resize_table({"Topology", "avg violations R", "avg violations NR"});
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty()) continue;
    const auto agg = [&](const char* name) { return aggregate_metric(cell, name); };
    if (cell.id.ends_with(kResizedSuffix)) {
      resize_table.row()
          .cell(cell.label + " (resized)")
          .mean_std(agg("beta_r").mean, agg("beta_r").stddev)
          .mean_std(agg("beta_nr").mean, agg("beta_nr").stddev);
    } else {
      table.row()
          .cell(cell.label)
          .mean_std(agg("beta_r").mean, agg("beta_r").stddev)
          .mean_std(agg("beta_nr").mean, agg("beta_nr").stddev)
          .mean_std(agg("beta_top10_r").mean, agg("beta_top10_r").stddev)
          .mean_std(agg("beta_top10_nr").mean, agg("beta_top10_nr").stddev)
          .mean_std(agg("phi_degradation_pct").mean, agg("phi_degradation_pct").stddev)
          .mean_std(agg("beta_floor").mean, agg("beta_floor").stddev);
    }
  }
  if (table.row_count() > 0) {
    print_banner(std::cout,
                 "Table II (paper: R beats NR 2-7x; NearTopo is the outlier; "
                 "Phi degradation well under the 20% allowance)");
    table.print(std::cout);
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
  }
  if (resize_table.row_count() > 0) {
    print_banner(std::cout,
                 "NearTopo after capacity resize (paper: violations drop, but the "
                 "limited path diversity still caps robust gains)");
    resize_table.print(std::cout);
    std::cout << "\nCSV:\n";
    resize_table.print_csv(std::cout);
  }
  return failed_cells > 0 ? 1 : 0;
}
