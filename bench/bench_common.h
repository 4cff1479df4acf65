#pragma once

/// Shared harness for the bench binaries: brings the tested experiment /
/// campaign modules (src/experiments) into the dtr::bench namespace and
/// parses the standard campaign flags every sweep-style bench supports —
/// the same table as `dtr_tool campaign` (experiments::campaign_run_flags:
/// --json, --filter, --list, --workers, --inner-threads, --no-incremental).
///
/// The JSON artifact is byte-identical for any --workers/--inner-threads
/// combination (the campaign engine's determinism contract), so artifacts
/// from different machines/shard counts diff clean.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "experiments/campaign.h"
#include "experiments/results.h"
#include "experiments/workloads.h"
#include "util/cli.h"

namespace dtr::bench {
using namespace dtr::experiments;  // NOLINT(google-build-using-namespace)

/// Parses the standard campaign flags (campaign_run_flags); --help lists
/// them, bad input exits 2.
inline CampaignRunArgs parse_bench_args(int argc, char** argv) {
  CampaignRunArgs args;
  cli::parse_or_exit(argv[0], {std::string(argv[0]) + " [flags]", campaign_run_flags(args)},
                     argc, argv);
  return args;
}

/// Runs the campaign sharded per the CLI args and writes the JSON artifact
/// when --json was given.
inline CampaignResult run_bench_campaign(const CampaignRunArgs& args, const Campaign& campaign) {
  CampaignResult result = run_campaign(campaign, args.options);
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::cerr << "cannot write " << args.json_path << "\n";
      std::exit(1);
    }
    write_campaign_json(out, result);
    std::cout << "wrote campaign JSON to " << args.json_path << "\n";
  }
  return result;
}

/// Prints "cell X failed: ..." for failed cells; returns the failure count.
inline int report_cell_errors(const CampaignResult& result) {
  int failures = 0;
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty()) {
      std::cerr << "cell " << cell.id << " failed: " << cell.error << "\n";
      ++failures;
    }
  }
  return failures;
}

}  // namespace dtr::bench
