#include "experiments/workloads.h"

#include <ostream>
#include <sstream>

namespace dtr::experiments {

std::string to_string(TopologyKind k) {
  switch (k) {
    case TopologyKind::kRand: return "RandTopo";
    case TopologyKind::kNear: return "NearTopo";
    case TopologyKind::kPl: return "PLTopo";
    case TopologyKind::kIsp: return "ISP";
  }
  return "?";
}

std::string WorkloadSpec::label() const {
  std::ostringstream ss;
  ss << to_string(kind);
  if (kind != TopologyKind::kIsp) {
    ss << "[" << nodes << "]";
  } else if (isp_source == IspSource::kGenerated) {
    ss << "[" << nodes << ",p" << isp_pops << "]";
  } else if (isp_source == IspSource::kFile) {
    // Basename only: cell ids should not depend on where the repo is checked
    // out, and "/" in ids collides with the generated "<label>/<index>" form.
    const auto slash = isp_file.find_last_of('/');
    ss << "[" << (slash == std::string::npos ? isp_file : isp_file.substr(slash + 1))
       << "]";
  }
  return ss.str();
}

Workload make_workload(const WorkloadSpec& spec) {
  Workload w;
  w.spec = spec;
  switch (spec.kind) {
    case TopologyKind::kRand:
      w.graph = make_rand_topo({spec.nodes, spec.degree, 500.0, spec.seed});
      break;
    case TopologyKind::kNear:
      w.graph = make_near_topo({spec.nodes, spec.degree, 500.0, spec.seed});
      break;
    case TopologyKind::kPl:
      w.graph = make_pl_topo({spec.nodes, spec.pl_attachments, 500.0, spec.seed});
      break;
    case TopologyKind::kIsp:
      switch (spec.isp_source) {
        case IspSource::kBackbone16:
          w.graph = make_isp_backbone().graph;
          break;
        case IspSource::kGenerated: {
          IspGenParams p;
          p.num_nodes = spec.nodes;
          p.num_pops = spec.isp_pops;
          p.cores_per_pop = spec.isp_cores_per_pop;
          p.backbone_degree = spec.isp_backbone_degree;
          p.avg_degree = spec.isp_avg_degree;
          p.seed = spec.seed;
          w.graph = make_isp_topo(p);
          break;
        }
        case IspSource::kFile:
          w.graph = load_isp_topo(spec.isp_file);
          break;
      }
      break;
  }
  w.params.sla.theta_ms = spec.theta_ms;
  // Synthesized delays calibrate to the SLA bound per Sec. V-A1. The embedded
  // ISP's geographic delays happen to leave only ~4% headroom against the
  // coast-to-coast SLA (tighter than the paper's proprietary topology, whose
  // regular routing still met the SLA normally); calibrating it the same way
  // keeps the failure experiments comparable across topologies.
  calibrate_delays_to_sla(w.graph, spec.theta_ms);
  w.traffic = split_by_class(
      make_gravity_traffic(w.graph, {1.0, 1.0, spec.seed + 1000}), spec.delay_fraction);
  scale_to_utilization(w.graph, w.traffic, spec.util);
  return w;
}

std::vector<WorkloadSpec> paper_topologies(Effort effort, std::uint64_t seed) {
  const bool full = effort == Effort::kFull;
  const int n = nodes_from_env(full ? 30 : 16);
  std::vector<WorkloadSpec> specs;
  const auto push = [&](TopologyKind kind, int num_nodes, double degree) {
    WorkloadSpec s;
    s.kind = kind;
    s.nodes = num_nodes;
    s.degree = degree;
    s.seed = seed;
    specs.push_back(std::move(s));
  };
  push(TopologyKind::kRand, n, 6.0);
  push(TopologyKind::kNear, n, 6.0);
  push(TopologyKind::kPl, n, 6.0);
  push(TopologyKind::kIsp, 16, 4.375);
  return specs;
}

WorkloadSpec default_rand_spec(Effort effort, std::uint64_t seed) {
  const bool full = effort == Effort::kFull;
  WorkloadSpec s;
  s.kind = TopologyKind::kRand;
  s.nodes = nodes_from_env(full ? 30 : 16);
  s.degree = full ? 6.0 : 5.0;
  s.seed = seed;
  return s;
}

BenchContext context_from_env() {
  BenchContext ctx;
  ctx.effort = effort_from_env(Effort::kQuick);
  ctx.repeats = repeats_from_env(ctx.effort == Effort::kFull ? 5 : 3);
  ctx.seed = seed_from_env(1);
  return ctx;
}

void print_context(std::ostream& os, const std::string& bench_name,
                   const BenchContext& ctx) {
  os << "# " << bench_name << "  (effort=" << to_string(ctx.effort)
     << ", repeats=" << ctx.repeats << ", seed=" << ctx.seed
     << "; override via DTR_EFFORT/DTR_REPEATS/DTR_SEED)\n";
}

OptimizeResult run_optimizer(const Evaluator& evaluator, Effort effort,
                             std::uint64_t seed,
                             const std::function<void(OptimizerConfig&)>& tweak) {
  OptimizerConfig config = default_optimizer_config(effort, seed);
  if (tweak) tweak(config);
  RobustOptimizer optimizer(evaluator, config);
  return optimizer.optimize();
}

FailureProfile link_failure_profile(const Evaluator& evaluator, const WeightSetting& w) {
  const auto scenarios = all_link_failures(evaluator.graph());
  return profile_failures(evaluator, w, scenarios);
}

}  // namespace dtr::experiments
