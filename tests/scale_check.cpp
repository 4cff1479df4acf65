/// ISP-scale determinism gate (own main, like differential_fuzz).
///
/// Generates a Rocketfuel-style ISP workload, runs the all-link-failures
/// incremental sweep, and proves two invariants at a size the unit suites
/// never touch:
///
///   1. Thread-shape byte identity: the sweep's results with a 1-thread pool
///      and an N-thread pool are bit-identical (exact double equality on
///      every field of every scenario).
///   2. Incremental == full: a deterministic sample of scenarios recomputed
///      with the incremental path disabled reproduces the sweep's results
///      bit for bit.
///
/// ctest registers a small smoke invocation; the CI scale-smoke job runs the
/// 1000-node / ~10k-link shape:
///
///   ./build/tests/scale_check --nodes 1000 --pops 40 --avg-degree 20
///       --threads 4 --full-sample 32
///
/// Any mismatch prints the scenario index and fields and exits 1. The final
/// `scale_check OK` line also reports the process's peak RSS (VmHWM), so the
/// 1000-node run logs what the per-routing n^2 state costs.

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/workloads.h"
#include "routing/failures.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace {

using namespace dtr;
using namespace dtr::experiments;
using Clock = std::chrono::steady_clock;

struct Args {
  int nodes = 120;
  int pops = 8;
  double avg_degree = 0.0;  // 0 = pure hierarchy
  int threads = 4;
  int full_sample = 8;
  std::uint64_t seed = 1;
};

Args parse_args(int argc, char** argv) {
  Args args;
  cli::parse_or_exit(
      "scale_check",
      {"scale_check [flags]",
       {{"--nodes", "N", "routers (default 120)",
         [&](std::string_view v) { args.nodes = cli::to_int(v); }},
        {"--pops", "N", "points of presence (default 8)",
         [&](std::string_view v) { args.pops = cli::to_int(v); }},
        {"--avg-degree", "D", "mean degree, 0 = pure hierarchy (default 0)",
         [&](std::string_view v) { args.avg_degree = cli::to_double(v); }},
        {"--threads", "N", "worker threads of the N-thread sweep (default 4)",
         [&](std::string_view v) { args.threads = cli::to_int(v); }},
        {"--full-sample", "N", "scenarios recomputed in full (default 8)",
         [&](std::string_view v) { args.full_sample = cli::to_int(v); }},
        {"--seed", "S", "topology and traffic seed (default 1)",
         [&](std::string_view v) { args.seed = cli::to_u64(v); }}}},
      argc, argv);
  return args;
}

/// Exact-equality comparison of the scalar result fields; the sweep runs at
/// EvalDetail::kScalar so the vectors stay empty.
bool identical(const EvalResult& a, const EvalResult& b) {
  return a.lambda == b.lambda && a.phi == b.phi &&
         a.sla_violations == b.sla_violations &&
         a.disconnected_delay_pairs == b.disconnected_delay_pairs &&
         a.disconnected_tput_pairs == b.disconnected_tput_pairs;
}

int report_mismatch(const char* what, std::size_t scenario, const EvalResult& a,
                    const EvalResult& b) {
  std::fprintf(stderr,
               "MISMATCH (%s) at scenario %zu:\n"
               "  lambda %.17g vs %.17g\n  phi %.17g vs %.17g\n"
               "  violations %d vs %d\n",
               what, scenario, a.lambda, b.lambda, a.phi, b.phi,
               a.sla_violations, b.sla_violations);
  return 1;
}

/// Peak resident set size in MB (VmHWM of /proc/self/status), or -1 where
/// the file does not exist.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  long kb = -1;
  while (kb < 0 && std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
  std::fclose(status);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  auto t0 = Clock::now();
  WorkloadSpec spec;
  spec.kind = TopologyKind::kIsp;
  spec.isp_source = IspSource::kGenerated;
  spec.nodes = args.nodes;
  spec.isp_pops = args.pops;
  spec.isp_avg_degree = args.avg_degree;
  spec.seed = args.seed;
  const Workload workload = make_workload(spec);
  const auto secs = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::printf("workload %s: %zu nodes, %zu links (%.1fs)\n",
              spec.label().c_str(), workload.graph.num_nodes(),
              workload.graph.num_links(), secs());

  const Evaluator ev(workload.graph, workload.traffic, workload.params);
  WeightSetting w(ev.graph().num_links());
  Rng rng(args.seed);
  randomize_weights(w, 30, rng);
  const std::vector<FailureScenario> scenarios = all_link_failures(ev.graph());

  t0 = Clock::now();
  ThreadPool seq(1);
  const std::vector<EvalResult> sweep1 = ev.evaluate_failures(w, scenarios, &seq);
  std::printf("incremental sweep, 1 thread: %zu scenarios in %.1fs\n",
              scenarios.size(), secs());

  t0 = Clock::now();
  ThreadPool pool(args.threads);
  const std::vector<EvalResult> sweepN = ev.evaluate_failures(w, scenarios, &pool);
  std::printf("incremental sweep, %d threads: %.1fs\n", args.threads, secs());

  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (!identical(sweep1[i], sweepN[i]))
      return report_mismatch("1-thread vs N-thread", i, sweep1[i], sweepN[i]);

  // Full-recompute cross-check on a deterministic stride of scenarios: the
  // incremental path is a pure HOW-knob, so the sampled results must match
  // bit for bit.
  EvaluatorConfig full_config;
  full_config.incremental = false;
  const Evaluator full(workload.graph, workload.traffic, workload.params,
                       full_config);
  const std::size_t sample =
      std::min<std::size_t>(scenarios.size(),
                            static_cast<std::size_t>(std::max(args.full_sample, 1)));
  const std::size_t stride = scenarios.size() / sample;
  t0 = Clock::now();
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t i = k * stride;
    const EvalResult r = full.evaluate(w, scenarios[i]);
    if (!identical(sweep1[i], r))
      return report_mismatch("incremental vs full", i, sweep1[i], r);
  }
  std::printf("full-path cross-check: %zu sampled scenarios in %.1fs\n", sample,
              secs());
  std::printf("scale_check OK: %zu scenarios byte-identical across thread "
              "shapes and against the full path; peak RSS %.1f MB\n",
              scenarios.size(), peak_rss_mb());
  return 0;
}
