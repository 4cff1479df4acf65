#pragma once

/// Shared harness for the bench binaries: brings the tested experiment /
/// campaign modules (src/experiments) into the dtr::bench namespace and
/// implements the standard campaign CLI every sweep-style bench supports:
///
///   --json PATH        write the campaign's schema-versioned JSON artifact
///   --filter SUBSTR    run only cells whose id contains SUBSTR
///   --list             print the cell ids and exit
///   --workers N        cell-level shards (default 0 = hardware concurrency)
///   --inner-threads N  per-cell engine threads when cells run sequentially
///   --no-incremental   evaluate with the full-recompute reference oracle
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

namespace dtr::bench {
using namespace dtr::experiments;  // NOLINT(google-build-using-namespace)

struct BenchArgs {
  std::string json_path;
  std::string filter;
  bool list = false;
  int workers = 0;
  int inner_threads = 1;
  EvaluatorConfig eval_config{};
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto next_count = [&]() -> int {
      const std::string text = next();
      if (const auto count = parse_worker_count(text); count.has_value())
        return *count;
      std::cerr << argv[0] << ": " << arg << " needs a count in [0, 4096], got '"
                << text << "'\n";
      std::exit(2);
    };
    if (arg == "--list") args.list = true;
    else if (arg == "--json") args.json_path = next();
    else if (arg == "--filter") args.filter = next();
    else if (arg == "--workers") args.workers = next_count();
    else if (arg == "--inner-threads") args.inner_threads = next_count();
    else if (arg == "--no-incremental") args.eval_config.incremental = false;
    else {
      std::cerr << argv[0] << ": unknown flag " << arg
                << " (flags: --json PATH, --filter SUBSTR, --list, --workers N, "
                   "--inner-threads N, --no-incremental)\n";
      std::exit(2);
    }
  }
  return args;
}

/// Applies --filter/--list to the campaign. Returns false when the binary
/// should exit immediately (list mode; the ids were printed).
inline bool apply_bench_args(const BenchArgs& args, Campaign& campaign) {
  filter_cells(campaign, args.filter);
  if (args.list) {
    for (const CampaignCell& cell : campaign.cells) std::cout << cell.id << "\n";
    return false;
  }
  return true;
}

/// Runs the campaign sharded per the CLI args and writes the JSON artifact
/// when --json was given.
inline CampaignResult run_bench_campaign(const BenchArgs& args, const Campaign& campaign) {
  CampaignResult result =
      run_campaign(campaign, {args.workers, args.inner_threads, args.eval_config});
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
