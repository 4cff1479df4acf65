/// Fig. 6 — sensitivity to traffic uncertainty (Sec. V-F):
///   (a)/(b) Gaussian random-fluctuation model (epsilon = 0.2), base TM at
///           90% max utilization under robust optimization
///   (c)/(d) download hot-spot model (10% servers, 50% clients, x2-6), base
///           TM at 74% max utilization
/// Series: SLA violations and normalized Phi over the top-10% worst failure
/// links, for Robust(perturbed TM), NoRobust(perturbed TM), Robust(base TM).
/// Paper claims: robust's advantage survives TM error; performance under
/// perturbed traffic stays close to the base-TM curve.
///
/// Runs as a campaign: one cell per uncertainty model. The fluctuated-TM
/// loop is the campaign engine's batched `evaluate_fluctuations` — trials
/// are drawn from one sequential stream, then sharded with a per-trial
/// Evaluator on top of per-worker routing scratch; each trial's base cache
/// builds a routing's base once and delta-patches every stressed failure
/// from it. See bench_common.h for the standard flags.

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"

namespace {

using namespace dtr;
using namespace dtr::bench;

void print_cell(const CellResult& cell, const std::string& banner) {
  if (!cell.error.empty()) return;
  const MetricRow& rep = cell.reps.front();
  const std::vector<double>& vr = *rep.get_series("pert_violations_r_mean");
  const std::vector<double>& vr_std = *rep.get_series("pert_violations_r_std");
  const std::vector<double>& vnr = *rep.get_series("pert_violations_nr_mean");
  const std::vector<double>& vnr_std = *rep.get_series("pert_violations_nr_std");
  const std::vector<double>& pr = *rep.get_series("pert_phi_r_mean");
  const std::vector<double>& pr_std = *rep.get_series("pert_phi_r_std");
  const std::vector<double>& pnr = *rep.get_series("pert_phi_nr_mean");
  const std::vector<double>& pnr_std = *rep.get_series("pert_phi_nr_std");
  const std::vector<double>& base_v = *rep.get_series("base_violations_r");
  const std::vector<double>& base_phi = *rep.get_series("base_phi_r");

  Table table({"top failure idx", "R perturbed (std)", "NR perturbed (std)", "R base",
               "phi* R perturbed (std)", "phi* NR perturbed (std)", "phi* R base"});
  for (std::size_t i = 0; i < vr.size(); ++i) {
    table.row()
        .integer(static_cast<long long>(i))
        .mean_std(vr[i], vr_std[i], 1)
        .mean_std(vnr[i], vnr_std[i], 1)
        .num(base_v[i], 0)
        .mean_std(pr[i], pr_std[i], 3)
        .mean_std(pnr[i], pnr_std[i], 3)
        .num(base_phi[i], 3);
  }
  print_banner(std::cout, banner);
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout << "\nAggregates: R-perturbed beta_top="
            << format_double(rep.get("pert_beta_top_r"))
            << "  NR-perturbed beta_top=" << format_double(rep.get("pert_beta_top_nr"))
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CampaignRunArgs args = parse_bench_args(argc, argv);
  const BenchContext ctx = context_from_env();
  const int trials = ctx.effort == Effort::kFull ? 100
                     : ctx.effort == Effort::kQuick ? 25
                                                    : 5;

  Campaign campaign;
  campaign.name = "fig6_uncertainty";
  campaign.effort = ctx.effort;
  campaign.seed = ctx.seed;
  {
    CampaignCell cell;
    cell.id = "gaussian";
    cell.spec = default_rand_spec(ctx.effort, ctx.seed);
    cell.spec.util = {UtilizationTarget::Kind::kMax, 0.90};
    // Sec. V-D: highly-loaded networks use a larger critical set.
    cell.critical_fraction = 0.25;
    cell.fluctuation.model = FluctuationSpec::Model::kGaussian;
    cell.fluctuation.gaussian = {0.2};
    cell.fluctuation.trials = trials;
    campaign.cells.push_back(std::move(cell));
  }
  {
    CampaignCell cell;
    cell.id = "hotspot";
    cell.spec = default_rand_spec(ctx.effort, ctx.seed);
    cell.spec.util = {UtilizationTarget::Kind::kMax, 0.74};
    cell.fluctuation.model = FluctuationSpec::Model::kHotSpot;
    cell.fluctuation.hot_spot = {HotSpotParams::Direction::kDownload, 0.1, 0.5, 2.0, 6.0};
    cell.fluctuation.trials = trials;
    campaign.cells.push_back(std::move(cell));
  }
  if (!select_cells(args, campaign, std::cout)) return 0;

  print_context(std::cout, "Fig. 6: robustness to traffic uncertainty", ctx);
  const CampaignResult result = run_bench_campaign(args, campaign);
  const int failed_cells = report_cell_errors(result);

  if (const CellResult* cell = result.find("gaussian"); cell != nullptr)
    print_cell(*cell,
               "Fig. 6(a)(b): Gaussian fluctuation model, epsilon=0.2, base at 90% "
               "max util (paper: robust stays ahead; perturbed ~= base)");
  if (const CellResult* cell = result.find("hotspot"); cell != nullptr)
    print_cell(*cell,
               "Fig. 6(c)(d): download hot-spot model (10% servers, 50% clients, "
               "x2-6), base at 74% max util");
  return failed_cells > 0 ? 1 : 0;
}
