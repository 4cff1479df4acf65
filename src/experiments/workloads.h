#pragma once

/// Experiment-workload construction: the Sec. V-A evaluation settings
/// (topology families, traffic synthesis, SLA calibration, load scaling)
/// packaged as a reusable, tested library module. The bench binaries, the
/// examples and downstream users all build instances through this API.

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "graph/isp.h"
#include "graph/topology.h"
#include "routing/evaluator.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/presets.h"
#include "util/table.h"

namespace dtr::experiments {

enum class TopologyKind { kRand, kNear, kPl, kIsp };

std::string to_string(TopologyKind k);

/// Source for TopologyKind::kIsp workloads (the `topology = isp[:...]`
/// campaign axis): the paper's embedded 16-city backbone, the seeded
/// Rocketfuel-style generator (scales to 1000+ nodes), or a `dtr-graph 1`
/// file on disk.
enum class IspSource { kBackbone16, kGenerated, kFile };

/// One experiment instance specification (Sec. V-A settings).
struct WorkloadSpec {
  TopologyKind kind = TopologyKind::kRand;
  int nodes = 30;
  double degree = 6.0;     ///< RandTopo/NearTopo mean degree
  int pl_attachments = 3;  ///< PLTopo BA attachments
  double theta_ms = 25.0;
  UtilizationTarget util{UtilizationTarget::Kind::kAverage, 0.43};
  double delay_fraction = 0.30;
  std::uint64_t seed = 1;

  // ISP scale axis (kind == kIsp only). kGenerated draws node count from
  // `nodes` and the generator shape from the isp_* fields; kFile loads
  // `isp_file` and ignores both.
  IspSource isp_source = IspSource::kBackbone16;
  int isp_pops = 12;
  int isp_cores_per_pop = 2;
  double isp_backbone_degree = 3.0;
  /// > 0 adds degree-skewed peering chords up to this mean node degree.
  double isp_avg_degree = 0.0;
  std::string isp_file;

  std::string label() const;
};

struct Workload {
  Graph graph;
  ClassedTraffic traffic;
  EvalParams params;
  WorkloadSpec spec;
};

/// Builds graph + traffic + eval params for a spec (deterministic per seed).
/// Synthesized AND ISP delays are calibrated against the SLA bound
/// (Sec. V-A1); traffic is gravity-model, 30% delay-sensitive,
/// scaled to the spec's utilization target.
Workload make_workload(const WorkloadSpec& spec);

/// The paper's four evaluation topologies (Table I/II row set). At non-full
/// effort the synthesized topologies shrink (16 nodes instead of 30, or the
/// DTR_NODES override) so a full bench sweep stays in minutes; ratios
/// (degree, load, |Ec|/|E|) are unchanged.
std::vector<WorkloadSpec> paper_topologies(Effort effort, std::uint64_t seed);

/// RandTopo spec at the effort-scaled default size (honors DTR_NODES).
WorkloadSpec default_rand_spec(Effort effort, std::uint64_t seed);

/// Effort / repeats / seed pulled from DTR_EFFORT, DTR_REPEATS, DTR_SEED.
struct BenchContext {
  Effort effort = Effort::kQuick;
  int repeats = 3;  ///< paper: 5
  std::uint64_t seed = 1;
};

BenchContext context_from_env();

/// Prints the standard bench header (effort, repeats, seed).
void print_context(std::ostream& os, const std::string& bench_name,
                   const BenchContext& ctx);

/// Runs the two-phase optimizer with effort defaults; `tweak` may adjust the
/// config (selector, |Ec| fraction, ...) before the run.
OptimizeResult run_optimizer(const Evaluator& evaluator, Effort effort,
                             std::uint64_t seed,
                             const std::function<void(OptimizerConfig&)>& tweak = {});

/// Convenience: profile a routing across all single link failures.
FailureProfile link_failure_profile(const Evaluator& evaluator, const WeightSetting& w);

}  // namespace dtr::experiments
