/// End-to-end benchmark harness for the robust two-class weight-setting
/// engine. One process runs one workload at one seed and prints its metrics
/// as the last line of stdout (one JSON object). perfbench/run.py builds this
/// binary and drives it; see that file for the command line contract.
///
/// Workloads (closed loop, one caller; N = min(4, CPUs this process may use)):
///   rand30-quick   the quick RandTopo-30 one-shot with pinned search caps
///   isp300-whatif  no search: a rate-weighted failure catalog evaluated for
///                  two fixed weight settings (per-scenario + weighted sweep)
///
/// Every run checks its outputs: all repetitions (1 and N threads, traced
/// and untraced) must produce byte-identical answers, and a seeded sample of
/// answers must match an incremental=false reference evaluator bit for bit.
/// Each repetition and each sampled comparison is one attempted operation;
/// a mismatch or an exception counts it as failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "core/optimizer.h"
#include "cost/delay_model.h"
#include "cost/fortz.h"
#include "cost/sla.h"
#include "graph/isp.h"
#include "graph/spf.h"
#include "graph/topology.h"
#include "routing/evaluator.h"
#include "routing/failures.h"
#include "routing/route_state.h"
#include "scenarios/scenario_set.h"
#include "scenarios/srlg.h"
#include "telemetry/telemetry.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dtr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Keeps probe results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< self-test instance sizes
  bool perturb = false;       ///< self-test: corrupt every N-thread job's answer
  bool exact_counts = false;  ///< self-test: counts of one traced, uncapped 1-thread job
  std::string trace_out;      ///< where the traced run writes its spans
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_harness: " << message
            << "\nusage: perfbench_harness --workload rand30-quick|isp300-whatif"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE] [--tiny]"
               " [--perturb] [--exact-counts]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = next();
      else if (arg == "--seed") a.seed = std::stoull(next());
      else if (arg == "--seconds") a.seconds = std::stod(next());
      else if (arg == "--trace") a.trace = next() != "0";
      else if (arg == "--trace-out") a.trace_out = next();
      else if (arg == "--tiny") a.tiny = true;
      else if (arg == "--perturb") a.perturb = true;
      else if (arg == "--exact-counts") a.exact_counts = true;
      else usage("unknown flag " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Metrics and spans
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
  /// Records one checked operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "check failed: " << what << "\n";
    }
  }
};

using Counts = std::map<std::string, std::uint64_t>;

/// Counters visible from outside the engine: the evaluator's base-cache
/// totals and the deterministic counters of an attached registry.
Counts sample_counts(const Evaluator* ev, const telemetry::Registry* reg) {
  Counts c;
  if (ev != nullptr) {
    const EvaluatorCacheStats s = ev->base_cache_stats();
    c["cache.hits"] = s.hits;
    c["cache.misses"] = s.misses;
    c["cache.donor_patched"] = s.weight_patched;
    c["cache.evictions"] = s.evictions;
  }
  if (reg != nullptr)
    for (const auto& cv : reg->snapshot(telemetry::Plane::kDeterministic).counters)
      c[cv.name] = cv.value;
  return c;
}

/// In-memory span recorder around the benchmark's own calls into each layer.
/// Spans carry the counter deltas observed over their interval and are
/// written once, at exit. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  /// The evaluator/registry whose counters spans opened from now on sample.
  void set_source(const Evaluator* ev, const telemetry::Registry* reg) {
    ev_ = ev;
    reg_ = reg;
  }

  int begin(const std::string& name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = seconds_since(origin_);
    s.at_start = sample_counts(ev_, reg_);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(origin_);
    for (const auto& [name, value] : sample_counts(ev_, reg_)) {
      const auto it = s.at_start.find(name);
      const std::uint64_t before = it == s.at_start.end() ? 0 : it->second;
      if (value != before) s.delta[name] = value - before;
    }
    s.at_start.clear();
    stack_.pop_back();
  }

  /// A child span whose interval was measured by the program itself (the
  /// optimizer's phase times), laid end to end from `start_s`.
  void add_child(int parent, const std::string& name, double start_s, double dur_s) {
    if (!on_ || parent < 0) return;
    Span s;
    s.name = name;
    s.parent = parent;
    s.start_s = start_s;
    s.end_s = start_s + dur_s;
    spans_.push_back(std::move(s));
  }

  double start_of(int id) const { return id < 0 ? 0.0 : spans_[id].start_s; }

  void write(const std::string& path, const std::string& workload, std::uint64_t seed) const {
    if (!on_ || path.empty()) return;
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_s - s.start_s;
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_ms\": " << s.start_s * 1e3
          << ", \"dur_ms\": " << dur * 1e3
          << ", \"self_ms\": " << (dur - child_time[i]) * 1e3 << ", \"counts\": {";
      bool first = true;
      for (const auto& [name, value] : s.delta) {
        out << (first ? "" : ", ") << "\"" << name << "\": " << value;
        first = false;
      }
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) std::cerr << "cannot write trace file " << path << "\n";
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    Counts at_start;
    Counts delta;
  };

  bool on_;
  Clock::time_point origin_;
  const Evaluator* ev_ = nullptr;
  const telemetry::Registry* reg_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : tracer_(t), id_(t != nullptr ? t->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kSearch, kWhatIf };

/// Answers re-evaluated by the reference evaluator per run (per setting).
constexpr std::size_t kOracleSample = 8;

struct WorkloadDef {
  Kind kind = Kind::kSearch;
  int nodes = 30;
  double degree = 6.0;  ///< RandTopo (search workload) only
  int pops = 12;        ///< ISP (what-if workload) only
  OptimizerConfig config;          ///< search workloads
  std::size_t link_sample = 0;     ///< what-if: single-link slice size
  std::size_t node_sample = 0;     ///< what-if: single-node slice size
  std::string describe;            ///< everything but the seed, for the self-test
};

WorkloadDef define_workload(const Args& a) {
  WorkloadDef d;
  std::ostringstream desc;
  if (a.workload == "rand30-quick") {
    d.nodes = a.tiny ? 12 : 30;
    d.degree = a.tiny ? 4.0 : 6.0;
    d.config = default_optimizer_config(a.tiny ? Effort::kSmoke : Effort::kQuick, a.seed);
    d.config.critical_fraction = 0.15;
    if (!a.exact_counts) {
      // Caps below the stall-based stopping rule, so every seed runs the
      // same number of local-search passes (one pass probes every link).
      d.config.phase1.max_iterations = a.tiny ? 3 : 6;
      d.config.phase2.max_iterations = a.tiny ? 3 : 6;
      d.config.max_phase1b_samples = a.tiny ? 100 : 600;
    }
  } else if (a.workload == "isp300-whatif") {
    d.kind = Kind::kWhatIf;
    d.nodes = a.tiny ? 60 : 300;
    d.pops = a.tiny ? 6 : 12;
    d.link_sample = a.tiny ? 8 : 12;
    d.node_sample = 2;
  } else {
    usage("unknown workload " + a.workload);
  }
  desc << a.workload << " nodes=" << d.nodes;
  if (d.kind == Kind::kWhatIf) desc << " pops=" << d.pops;
  else desc << " degree=" << d.degree;
  if (d.kind == Kind::kSearch) {
    const OptimizerConfig& c = d.config;
    desc << " phase1_cap=" << c.phase1.max_iterations
         << " phase2_cap=" << c.phase2.max_iterations
         << " phase1b_samples=" << c.max_phase1b_samples << " tau=" << c.criticality.tau
         << " fraction=" << c.critical_fraction;
  } else {
    desc << " link_sample=" << d.link_sample << " node_sample=" << d.node_sample;
  }
  d.describe = desc.str();
  return d;
}

/// The generated inputs of one workload at one seed. Evaluators keep a
/// reference to `graph`, so an Instance is heap-held and never moved.
struct Instance {
  Graph graph;
  ClassedTraffic traffic;
  EvalParams params;
  // What-if catalog, rate-weighted, by kind; `all` concatenates them.
  ScenarioSet links, srlgs, nodes, all;
  std::vector<WeightSetting> settings;  ///< what-if weight settings
};

struct SetupTimes {
  double graph_s = 0.0;      ///< topology + traffic
  double evaluator_s = 0.0;  ///< Evaluator construction + CSR build
  double catalog_s = 0.0;    ///< the what-if catalog
  double total_s = 0.0;
};

std::vector<std::uint32_t> seeded_sample(std::size_t universe, std::size_t count, Rng& rng) {
  std::vector<std::uint32_t> ids(universe);
  std::iota(ids.begin(), ids.end(), 0u);
  if (count >= universe) return ids;
  for (std::size_t i = 0; i < count; ++i)
    std::swap(ids[i], ids[i + rng.uniform_index(universe - i)]);
  ids.resize(count);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::unique_ptr<Instance> build_instance(const WorkloadDef& d, std::uint64_t seed,
                                         SetupTimes& times, Tracer* tracer) {
  auto inst = std::make_unique<Instance>();
  Graph& g = inst->graph;
  {
    ScopedSpan span(tracer, "setup.workload_build");
    const auto t0 = Clock::now();
    if (d.kind == Kind::kSearch) {
      // The instance `dtr_tool --topology rand --nodes 30 --degree 6 --seed 1`
      // builds, with the seed drawing the demands: topology seed 1, gravity
      // seed s+1, 30% delay traffic. Seed 1 is exactly dtr_tool's instance.
      g = make_rand_topo({d.nodes, d.degree, 500.0, 1});
      calibrate_delays_to_sla(g, 25.0);
      inst->traffic = split_by_class(make_gravity_traffic(g, {1.0, 1.0, seed + 1}), 0.30);
      scale_to_utilization(g, inst->traffic,
                           UtilizationTarget{UtilizationTarget::Kind::kAverage, 0.43});
      inst->params.sla.theta_ms = 25.0;
    } else {
      // The BM_IspScale* topology (generated ISP, seed 1, pops = max(6,
      // nodes / 25)) with make_workload's calibration and traffic steps; the
      // seed draws the traffic matrix, so every seed routes over the same
      // physical network and only the demands move.
      IspGenParams p;
      p.num_nodes = d.nodes;
      p.num_pops = d.pops;
      p.seed = 1;
      g = make_isp_topo(p);
      calibrate_delays_to_sla(g, 25.0);
      inst->traffic = split_by_class(make_gravity_traffic(g, {1.0, 1.0, seed + 1000}), 0.30);
      scale_to_utilization(g, inst->traffic,
                           UtilizationTarget{UtilizationTarget::Kind::kAverage, 0.43});
      inst->params.sla.theta_ms = 25.0;
    }
    times.graph_s = seconds_since(t0);
  }
  {
    ScopedSpan span(tracer, "setup.evaluator_construct");
    const auto t0 = Clock::now();
    g.csr();
    const Evaluator ev(g, inst->traffic, inst->params);
    g_sink = g_sink + ev.phi_uncap();
    times.evaluator_s = seconds_since(t0);
  }
  {
    ScopedSpan span(tracer, "setup.catalog_build");
    const auto t0 = Clock::now();
    if (d.kind == Kind::kWhatIf) {
      // Fixed samples: the catalog, like the topology, is the same for
      // every seed; the seed draws the demands and the uniform setting.
      Rng rng(17);
      for (const std::uint32_t l : seeded_sample(g.num_links(), d.link_sample, rng))
        inst->links.add(FailureScenario::link(l), 1.0, "link#" + std::to_string(l));
      inst->srlgs = srlg_scenario_set(g, synthesize_geo_srlgs(g, GeoSrlgParams{}));
      for (const std::uint32_t v : seeded_sample(g.num_nodes(), d.node_sample, rng))
        inst->nodes.add(FailureScenario::node(v), 1.0, "node#" + std::to_string(v));
      const FailureRates rates = derive_failure_rates(g);
      for (ScenarioSet* set : {&inst->links, &inst->srlgs, &inst->nodes}) {
        apply_rate_weights(*set, rates);
        for (std::size_t i = 0; i < set->size(); ++i)
          inst->all.add(set->scenario(i), set->weight(i), set->name(i));
      }
      WeightSetting uniform(g.num_links());
      Rng wrng(seed + 29);
      randomize_weights(uniform, 30, wrng);
      inst->settings.push_back(std::move(uniform));
      inst->settings.emplace_back(g.num_links(), 1);  // min-hop, heavy ECMP ties
    }
    times.catalog_s = seconds_since(t0);
  }
  times.total_s = times.graph_s + times.evaluator_s + times.catalog_s;
  return inst;
}

/// FNV-1a over every generated input, so the self-test can tell which
/// inputs a seed changed.
std::uint64_t fingerprint(const Instance& inst, const WorkloadDef& d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const Graph& g = inst.graph;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    mix(&arc.src, sizeof arc.src);
    mix(&arc.dst, sizeof arc.dst);
    mix(&arc.capacity, sizeof arc.capacity);
    mix(&arc.prop_delay_ms, sizeof arc.prop_delay_ms);
  }
  for (NodeId s = 0; s < g.num_nodes(); ++s)
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const double dv = inst.traffic.delay.at(s, t), tv = inst.traffic.throughput.at(s, t);
      mix(&dv, sizeof dv);
      mix(&tv, sizeof tv);
    }
  for (std::size_t i = 0; i < inst.all.size(); ++i) {
    const std::string s = to_string(inst.all.scenario(i));
    mix(s.data(), s.size());
    const double w = inst.all.weight(i);
    mix(&w, sizeof w);
  }
  for (const WeightSetting& w : inst.settings)
    for (const TrafficClass c : kBothClasses) mix(w.weights(c).data(), w.num_links() * sizeof(int));
  mix(&d.config.seed, sizeof d.config.seed);
  return h;
}

// ---------------------------------------------------------------------------
// Jobs: the timed unit of work of each workload kind
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const EvalResult& a, const EvalResult& b) {
  return same_bits(a.lambda, b.lambda) && same_bits(a.phi, b.phi) &&
         a.sla_violations == b.sla_violations &&
         a.disconnected_delay_pairs == b.disconnected_delay_pairs &&
         a.disconnected_tput_pairs == b.disconnected_tput_pairs;
}

bool same_cost(const CostPair& a, const CostPair& b) {
  return same_bits(a.lambda, b.lambda) && same_bits(a.phi, b.phi);
}

/// Wall times of one job: the whole job, and its parts (optimizer phases
/// from OptimizeResult, or what-if calls summed over the settings).
struct JobTimes {
  double seconds = 0.0;
  double phase1a_s = 0.0, phase1b_s = 0.0, phase2_s = 0.0;
  double link_s = 0.0, srlg_s = 0.0, node_s = 0.0, sweep_s = 0.0;
};

/// The answer of one job and what it cost.
struct JobRun {
  JobTimes times;
  Counts counts;          ///< cache + registry counters after the job
  OptimizeResult search;  ///< search workloads
  /// What-if: per setting, the link / srlg / node slice results in catalog
  /// order, and the weighted sweep over the whole catalog.
  std::vector<std::vector<EvalResult>> profiles;
  std::vector<SweepResult> sweeps;
  std::size_t scenarios = 0;
};

void run_search(const Evaluator& ev, const WorkloadDef& d, int threads,
                telemetry::Registry* reg, Tracer* tracer, JobRun& run) {
  OptimizerConfig config = d.config;
  config.num_threads = threads;
  config.telemetry = reg;
  ScopedSpan span(tracer, "core.optimize");
  const auto t0 = Clock::now();
  run.search = RobustOptimizer(ev, config).optimize();
  const OptimizeResult& r = run.search;
  run.times = {.seconds = seconds_since(t0),
               .phase1a_s = r.phase1_seconds,
               .phase1b_s = r.phase1b_seconds,
               .phase2_s = r.phase2_seconds};
  if (tracer == nullptr) return;
  // optimize() is one call; its own phase clocks split the span.
  const double phase1c =
      run.times.seconds - r.phase1_seconds - r.phase1b_seconds - r.phase2_seconds;
  double at = tracer->start_of(span.id());
  for (const auto& [name, dur] :
       {std::pair{"core.phase1a", r.phase1_seconds}, {"core.phase1b", r.phase1b_seconds},
        {"core.phase1c", std::max(0.0, phase1c)}, {"core.phase2", r.phase2_seconds}}) {
    tracer->add_child(span.id(), name, at, dur);
    at += dur;
  }
}

/// The operator's query for each weight setting: the per-scenario profile of
/// every catalog slice, then the rate-weighted expected cost.
void run_whatif(const Evaluator& ev, const Instance& inst, int threads, Tracer* tracer,
                bool perturb, JobRun& run) {
  ThreadPool pool(threads);
  std::vector<WeightSetting> settings = inst.settings;
  if (perturb) settings[0] = settings[1];  // a wrong weight vector in place of the first
  SweepOptions sweep;
  sweep.scenario_weights = inst.all.weights();
  sweep.pool = &pool;
  const auto t0 = Clock::now();
  for (const WeightSetting& w : settings) {
    std::vector<EvalResult> profile;
    for (const auto& [set, name, acc] :
         {std::tuple{&inst.links, "scenarios.evaluate_failures.link", &run.times.link_s},
          {&inst.srlgs, "scenarios.evaluate_failures.srlg", &run.times.srlg_s},
          {&inst.nodes, "scenarios.evaluate_failures.node", &run.times.node_s}}) {
      ScopedSpan span(tracer, name);
      const auto ts = Clock::now();
      const std::vector<EvalResult> r = ev.evaluate_failures(w, set->scenarios(), &pool);
      *acc += seconds_since(ts);
      profile.insert(profile.end(), r.begin(), r.end());
    }
    run.profiles.push_back(std::move(profile));
    ScopedSpan span(tracer, "scenarios.sweep");
    const auto ts = Clock::now();
    run.sweeps.push_back(ev.sweep(w, inst.all.scenarios(), sweep));
    run.times.sweep_s += seconds_since(ts);
    run.scenarios += 2 * inst.all.size();
  }
  run.times.seconds = seconds_since(t0);
}

/// One job on a fresh evaluator (cold cache), timed from outside. `traced`
/// attaches a telemetry registry; `tracer` (may be null) records spans.
JobRun run_job(const Instance& inst, const WorkloadDef& d, int threads, bool traced,
               Tracer* tracer, bool perturb) {
  telemetry::Registry registry;
  telemetry::Registry* reg = traced ? &registry : nullptr;
  EvaluatorConfig config;
  config.telemetry = reg;
  std::optional<Evaluator> ev;
  {
    ScopedSpan span(tracer, "evaluator_construct");
    ev.emplace(inst.graph, inst.traffic, inst.params, config);
  }
  if (tracer != nullptr) tracer->set_source(&*ev, reg);
  JobRun run;
  if (d.kind == Kind::kSearch) {
    run_search(*ev, d, threads, reg, tracer, run);
    if (perturb) {
      WeightSetting& w = run.search.robust;
      w.set(TrafficClass::kThroughput, 0, w.get(TrafficClass::kThroughput, 0) % 100 + 1);
    }
  } else {
    run_whatif(*ev, inst, threads, tracer, perturb, run);
  }
  run.counts = sample_counts(&*ev, reg);
  if (tracer != nullptr) tracer->set_source(nullptr, nullptr);
  return run;
}

bool same_answer(const JobRun& a, const JobRun& b) {
  const OptimizeResult &x = a.search, &y = b.search;
  if (!(x.robust == y.robust && x.regular == y.regular && x.critical == y.critical &&
        same_cost(x.robust_normal_cost, y.robust_normal_cost) &&
        same_cost(x.robust_kfail, y.robust_kfail)))
    return false;
  if (a.profiles.size() != b.profiles.size() || a.sweeps.size() != b.sweeps.size())
    return false;
  for (std::size_t s = 0; s < a.profiles.size(); ++s) {
    if (!std::equal(a.profiles[s].begin(), a.profiles[s].end(), b.profiles[s].begin(),
                    b.profiles[s].end(), same_result))
      return false;
    const SweepResult &p = a.sweeps[s], &q = b.sweeps[s];
    if (!same_bits(p.lambda, q.lambda) || !same_bits(p.phi, q.phi) ||
        !same_bits(p.violations, q.violations) || p.aborted != q.aborted ||
        p.scenarios_evaluated != q.scenarios_evaluated)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reference-oracle check (EvaluatorConfig{incremental = false})
// ---------------------------------------------------------------------------

void check_oracle(const Instance& inst, const WorkloadDef& d, std::uint64_t seed,
                  const JobRun& run, Outcome& out, Tracer* tracer) {
  ScopedSpan span(tracer, "oracle_check");
  EvaluatorConfig config;
  config.incremental = false;
  const Evaluator oracle(inst.graph, inst.traffic, inst.params, config);
  Rng rng(seed + 41);
  if (d.kind == Kind::kSearch) {
    const WeightSetting& w = run.search.robust;
    out.check(same_cost(oracle.evaluate(w).cost(), run.search.robust_normal_cost),
              "robust normal cost differs from the reference evaluator");
    std::vector<FailureScenario> sample;
    for (const std::uint32_t l : seeded_sample(inst.graph.num_links(), kOracleSample, rng))
      sample.push_back(FailureScenario::link(l));
    const Evaluator ev(inst.graph, inst.traffic, inst.params);
    const std::vector<EvalResult> fast = ev.evaluate_failures(w, sample);
    for (std::size_t i = 0; i < sample.size(); ++i)
      out.check(same_result(fast[i], oracle.evaluate(w, sample[i])),
                "robust setting under " + to_string(sample[i]) + " differs from the reference");
    return;
  }
  for (std::size_t s = 0; s < inst.settings.size(); ++s)
    for (const std::uint32_t i : seeded_sample(inst.all.size(), kOracleSample, rng))
      out.check(same_result(run.profiles[s][i],
                            oracle.evaluate(inst.settings[s], inst.all.scenario(i))),
                "what-if setting " + std::to_string(s) + " under " +
                    to_string(inst.all.scenario(i)) + " differs from the reference");
}

// ---------------------------------------------------------------------------
// Layer probes: a fixed number of calls into one public function each, on
// the workload's own instance and the run's answer weights
// ---------------------------------------------------------------------------

/// Median seconds per call over `calls` calls; `prepare` runs untimed before
/// each call.
template <typename Prepare, typename Call>
double time_calls(int calls, Prepare&& prepare, Call&& call) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(calls));
  for (int k = 0; k < calls; ++k) {
    prepare(k);
    const auto t0 = Clock::now();
    call(k);
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

void run_probes(const Instance& inst, const WeightSetting& w, Outcome& out, Tracer* tracer) {
  constexpr int kFast = 200;  // microsecond-scale calls
  constexpr int kSlow = 12;   // millisecond-scale calls
  const Graph& g = inst.graph;
  const std::size_t n = g.num_nodes();
  const auto noop = [](int) {};
  std::vector<double> cost_d, cost_t;
  w.arc_costs(g, TrafficClass::kDelay, cost_d);
  w.arc_costs(g, TrafficClass::kThroughput, cost_t);

  // Probe target: the most loaded arc's link, toward that arc's head.
  const Evaluator ev(g, inst.traffic, inst.params);
  const EvalResult full = ev.evaluate(w, FailureScenario::none(), EvalDetail::kFull);
  const auto hot = static_cast<ArcId>(
      std::max_element(full.arc_total_load.begin(), full.arc_total_load.end()) -
      full.arc_total_load.begin());
  const LinkId link = g.arc(hot).link;
  const NodeId t = g.arc(hot).dst;
  const std::span<const ArcId> link_arcs = g.link_arcs(link);
  const std::vector<ArcId> removed(link_arcs.begin(), link_arcs.end());
  std::vector<std::uint8_t> mask;
  build_alive_mask(g, FailureScenario::link(link), mask);

  std::vector<double> dist, base_dist, ref;
  {
    ScopedSpan span(tracer, "probe.spf_full");
    out.add("probe.spf_full_us",
            1e6 * time_calls(kFast, noop,
                             [&](int) { shortest_distances_to(g, t, cost_d, {}, dist); }),
            "us");
  }
  base_dist = dist;
  {
    ScopedSpan span(tracer, "probe.spf_delta_update");
    // Alternate the link's delay weight between its value and an extreme,
    // so every call is a valid update of the labels the previous call left.
    const double alt = w.get(TrafficClass::kDelay, link) == 100 ? 1.0 : 100.0;
    std::vector<double> cost_alt = cost_d;
    for (const ArcId a : link_arcs) cost_alt[a] = alt;
    DeltaSpfScratch scratch;
    std::vector<ArcCostDelta> changes;
    out.add("probe.spf_delta_update_us",
            1e6 * time_calls(
                      kFast,
                      [&](int k) {
                        changes.clear();
                        for (const ArcId a : link_arcs)
                          changes.push_back({a, k % 2 == 0 ? cost_d[a] : cost_alt[a]});
                      },
                      [&](int k) {
                        delta_spf_update_arcs(g, k % 2 == 0 ? cost_alt : cost_d, {}, changes,
                                              dist, n, scratch);
                      }),
            "us");
    shortest_distances_to(g, t, kFast % 2 == 0 ? cost_d : cost_alt, {}, ref);
    out.check(dist == ref, "delta_spf_update_arcs labels differ from a full Dijkstra");
  }
  {
    ScopedSpan span(tracer, "probe.spf_delta_remove");
    DeltaSpfScratch scratch;
    out.add("probe.spf_delta_remove_us",
            1e6 * time_calls(
                      kFast, [&](int) { dist = base_dist; },
                      [&](int) {
                        delta_spf_remove_arcs(g, cost_d, mask, removed, dist, n, scratch);
                      }),
            "us");
    shortest_distances_to(g, t, cost_d, mask, ref);
    out.check(dist == ref, "delta_spf_remove_arcs labels differ from a full Dijkstra");
  }

  ClassRouting tput;
  {
    ScopedSpan span(tracer, "probe.route_compute");
    out.add("probe.route_compute_ms",
            1e3 * time_calls(kSlow, noop,
                             [&](int) { tput.compute(g, cost_t, inst.traffic.throughput, {}); }),
            "ms");
  }
  {
    ScopedSpan span(tracer, "probe.route_from_base");
    ClassRouting base, patched, reference;
    RoutingBaseRecord record;
    FailureScratch scratch;
    base.compute(g, cost_t, inst.traffic.throughput, {}, {}, &record);
    out.add("probe.route_from_base_ms",
            1e3 * time_calls(kSlow, noop,
                             [&](int) {
                               patched.compute_from_base(g, cost_t, inst.traffic.throughput,
                                                         base, record, removed, mask, 0.25,
                                                         scratch);
                             }),
            "ms");
    reference.compute(g, cost_t, inst.traffic.throughput, mask);
    const auto a = patched.arc_loads(), b = reference.arc_loads();
    out.check(std::equal(a.begin(), a.end(), b.begin(), b.end(), same_bits),
              "compute_from_base loads differ from a full compute");
  }

  ClassRouting delay;
  delay.compute(g, cost_d, inst.traffic.delay, {});
  std::vector<double> arc_delay(g.num_arcs()), total(g.num_arcs()), sd_delay;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    total[a] = delay.arc_load(a) + tput.arc_load(a);
    arc_delay[a] = link_delay_ms(total[a], g.arc(a).capacity, g.arc(a).prop_delay_ms,
                                 inst.params.delay_model);
  }
  {
    ScopedSpan span(tracer, "probe.delay_dp");
    out.add("probe.delay_dp_ms",
            1e3 * time_calls(kSlow, noop,
                             [&](int) {
                               delay.end_to_end_delays(g, cost_d, {}, arc_delay,
                                                       inst.traffic.delay,
                                                       inst.params.sla_delay_mode, {},
                                                       sd_delay);
                             }),
            "ms");
  }
  {
    ScopedSpan span(tracer, "probe.cost_tail");
    const double disconnect_ms =
        inst.params.sla.theta_ms + inst.params.disconnect_delay_excess_ms;
    out.add("probe.cost_tail_us",
            1e6 * time_calls(kFast, noop,
                             [&](int) {
                               const SlaAggregate sla =
                                   accumulate_sla_cost(sd_delay, inst.params.sla, disconnect_ms);
                               double phi = 0.0;
                               for (ArcId a = 0; a < g.num_arcs(); ++a)
                                 phi += fortz_cost(total[a], g.arc(a).capacity);
                               g_sink = g_sink + sla.lambda + phi;
                             }),
            "us");
  }

  {
    ScopedSpan span(tracer, "probe.eval_build");
    const Evaluator cold(g, inst.traffic, inst.params);
    out.add("probe.eval_build_ms",
            1e3 * time_calls(kSlow, [&](int) { cold.invalidate_base_cache(); },
                             [&](int) { g_sink = g_sink + cold.evaluate(w).phi; }),
            "ms");
  }
  {
    ScopedSpan span(tracer, "probe.eval_donor");
    // Each probe differs from the cached incumbent on one link, like a
    // Phase-1a candidate, so its base is donor-patched.
    const Evaluator donor(g, inst.traffic, inst.params);
    std::vector<WeightSetting> probes(kSlow, w);
    for (int k = 0; k < kSlow; ++k) {
      const auto l = static_cast<LinkId>(static_cast<std::size_t>(k) % g.num_links());
      probes[k].set(TrafficClass::kDelay, l, w.get(TrafficClass::kDelay, l) % 100 + 1);
    }
    out.add("probe.eval_donor_ms",
            1e3 * time_calls(kSlow,
                             [&](int) {
                               donor.invalidate_base_cache();
                               g_sink = g_sink + donor.evaluate(w).phi;
                             },
                             [&](int k) { g_sink = g_sink + donor.evaluate(probes[k]).phi; }),
            "ms");
    out.check(donor.base_cache_stats().weight_patched == static_cast<std::uint64_t>(kSlow),
              "single-link probes were not donor-patched");
  }
  {
    ScopedSpan span(tracer, "probe.eval_hit");
    g_sink = g_sink + ev.evaluate(w).phi;
    out.add("probe.eval_hit_us",
            1e6 * time_calls(kFast, noop, [&](int) { g_sink = g_sink + ev.evaluate(w).phi; }),
            "us");
  }
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launching interpreter's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

std::uint64_t count(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Per-layer counters of one traced 1-thread job.
void add_count_metrics(const Counts& c, Outcome& out) {
  const double hits = count(c, "cache.hits"), misses = count(c, "cache.misses");
  const double donor = count(c, "cache.donor_patched");
  out.add("cache.hits", hits, "count");
  out.add("cache.misses", misses, "count");
  out.add("cache.donor_patched", donor, "count");
  out.add("cache.evictions", count(c, "cache.evictions"), "count");
  out.add("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  out.add("cache.donor_ratio", ratio(donor, misses), "ratio");
  out.add("eval.patched", count(c, "eval.patched"), "count");
  out.add("eval.full", count(c, "eval.full"), "count");
  const double calls = count(c, "sweep.calls");
  out.add("sweep.calls", calls, "count");
  out.add("sweep.abort_ratio", ratio(count(c, "sweep.aborts"), calls), "ratio");
  const double delta = count(c, "spf.dests_delta");
  const double fallback = count(c, "spf.dests_full_fallback");
  out.add("spf.dests_delta", delta, "count");
  out.add("spf.fallback_ratio", ratio(fallback, delta + fallback), "ratio");
  out.add("spf.affected_per_dest", ratio(count(c, "spf.affected_nodes"), delta), "nodes");
  const double resweep = count(c, "load.dests_resweep");
  const double replayed = count(c, "load.dests_replayed");
  out.add("load.dests_resweep", resweep, "count");
  out.add("load.replay_ratio", ratio(replayed, replayed + resweep), "ratio");
  const double recomputed = count(c, "delay.cols_recomputed");
  const double cols_replayed = count(c, "delay.cols_replayed");
  out.add("delay.cols_recomputed", recomputed, "count");
  out.add("delay.replay_ratio", ratio(cols_replayed, cols_replayed + recomputed), "ratio");
}

/// Answer quality, computed after the timed region: normal Phi/Phi_uncap of
/// the answer setting, and mean Phi/Phi_uncap and mean Lambda over its
/// single-link failures (the robust setting of a search; the uniform
/// setting and the catalog's link slice of a what-if).
void add_quality_metrics(const Instance& inst, const WorkloadDef& d, const JobRun& ref,
                         Outcome& out) {
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const bool search = d.kind == Kind::kSearch;
  const WeightSetting& w = search ? ref.search.robust : inst.settings[0];
  const std::vector<EvalResult> failures =
      search ? ev.evaluate_failures(w, all_link_failures(inst.graph))
             : std::vector<EvalResult>(ref.profiles[0].begin(),
                                       ref.profiles[0].begin() + inst.links.size());
  double phi = 0.0, lambda = 0.0;
  for (const EvalResult& e : failures) {
    phi += e.phi;
    lambda += e.lambda;
  }
  const double count = static_cast<double>(failures.size());
  out.add("quality.normal_phi", ev.evaluate(w).phi / ev.phi_uncap(), "ratio");
  out.add("quality.fail_phi", phi / count / ev.phi_uncap(), "ratio");
  out.add("quality.fail_lambda", lambda / count, "cost");
}

/// N = min(4, nproc): the CPUs in this process's affinity mask, as nproc
/// counts them, not the machine's.
int threads_n() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, 4);
}

void print_json(const Outcome& out) {
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    js << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

template <typename Fn>
bool guarded(Outcome& out, const std::string& what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    out.check(false, what + " threw: " + e.what());
    return false;
  }
}

/// Everything one run measured, before it is turned into metrics. Answers
/// are compared as jobs finish and not kept.
struct Samples {
  std::vector<double> setup_total, setup_graph, setup_evaluator, setup_catalog;
  std::vector<JobTimes> one, par, traced;
  Counts traced_counts;  ///< of the first traced job
};

double median_of(const std::vector<JobTimes>& jobs, double JobTimes::*field) {
  std::vector<double> v;
  for (const JobTimes& t : jobs) v.push_back(t.*field);
  return median(std::move(v));
}

/// The measurement window: rounds of a few set-ups, then (traced run only) a
/// traced 1-thread job, then an untraced 1-thread and an N-thread job, until
/// `seconds` have passed. Interleaving spreads every sample kind over the
/// whole window, so slow phases of the machine hit them alike.
void measure(const Args& a, const WorkloadDef& d, const Instance& inst, const JobRun& ref,
             Tracer& tracer, Outcome& out, Samples& s) {
  constexpr int kSetupsPerRound = 3;
  const int n = threads_n();
  const auto t0 = Clock::now();
  for (int round = 0; round == 0 || seconds_since(t0) < a.seconds; ++round) {
    for (int k = 0; k < kSetupsPerRound; ++k) {
      SetupTimes t;
      guarded(out, "setup", [&] { build_instance(d, a.seed, t, nullptr); });
      s.setup_total.push_back(t.total_s);
      s.setup_graph.push_back(t.graph_s);
      s.setup_evaluator.push_back(t.evaluator_s);
      s.setup_catalog.push_back(t.catalog_s);
    }
    struct Leg {
      int threads;
      bool traced;
      std::vector<JobTimes>* into;
    };
    std::vector<Leg> legs = {{1, false, &s.one}, {n, false, &s.par}};
    if (a.trace) legs.insert(legs.begin(), Leg{1, true, &s.traced});
    for (const Leg& leg : legs) {
      guarded(out, "job", [&] {
        Tracer* spans = leg.traced && round == 0 ? &tracer : nullptr;
        // --perturb picks the N-thread leg by its role, not its thread count,
        // so the corruption is caught on a 1-CPU host too.
        const bool perturb = a.perturb && leg.into == &s.par;
        JobRun run = run_job(inst, d, leg.threads, leg.traced, spans, perturb);
        out.check(same_answer(ref, run), "answer differs from the reference job (threads=" +
                                             std::to_string(leg.threads) +
                                             (leg.traced ? ", traced" : "") + ")");
        if (leg.traced && s.traced.empty())
          s.traced_counts = run.counts;
        else if (leg.traced)
          out.check(run.counts == s.traced_counts, "traced 1-thread jobs report different counts");
        leg.into->push_back(run.times);
      });
    }
  }
}

void add_traced_metrics(const Instance& inst, const WorkloadDef& d, const JobRun& ref,
                        const Samples& s, Tracer& tracer, Outcome& out) {
  const bool search = d.kind == Kind::kSearch;
  const auto speedup = [&](double JobTimes::*f) {
    return search ? ratio(median_of(s.one, f), median_of(s.par, f)) : 0.0;
  };
  out.add("core.phase1a_s", median_of(s.one, &JobTimes::phase1a_s), "s");
  out.add("core.phase1b_s", median_of(s.one, &JobTimes::phase1b_s), "s");
  out.add("core.phase2_s", median_of(s.one, &JobTimes::phase2_s), "s");
  out.add("core.phase1_evals", static_cast<double>(ref.search.phase1_evaluations), "count");
  out.add("core.phase2_evals", static_cast<double>(ref.search.phase2_evaluations), "count");
  out.add("core.phase2_scen_evals", static_cast<double>(ref.search.phase2_scenario_evaluations),
          "count");
  out.add("core.phase1a_speedup", speedup(&JobTimes::phase1a_s), "x");
  out.add("core.phase2_speedup", speedup(&JobTimes::phase2_s), "x");
  add_count_metrics(s.traced_counts, out);

  const double settings = static_cast<double>(inst.settings.size());
  const auto per_scen_ms = [&](double JobTimes::*f, std::size_t scenarios) {
    return 1e3 * ratio(median_of(s.one, f), settings * static_cast<double>(scenarios));
  };
  out.add("whatif.link_ms_per_scen", per_scen_ms(&JobTimes::link_s, inst.links.size()), "ms");
  out.add("whatif.srlg_ms_per_scen", per_scen_ms(&JobTimes::srlg_s, inst.srlgs.size()), "ms");
  out.add("whatif.node_ms_per_scen", per_scen_ms(&JobTimes::node_s, inst.nodes.size()), "ms");
  out.add("whatif.sweep_ms", 1e3 * ratio(median_of(s.one, &JobTimes::sweep_s), settings), "ms");
  out.add("whatif.scen_per_s", ratio(ref.scenarios, median_of(s.one, &JobTimes::seconds)),
          "scen/s");
  out.add("whatif.scen_per_s_par", ratio(ref.scenarios, median_of(s.par, &JobTimes::seconds)),
          "scen/s");

  out.add("setup.graph_s", median(s.setup_graph), "s");
  out.add("setup.evaluator_s", median(s.setup_evaluator), "s");
  out.add("setup.catalog_s", median(s.setup_catalog), "s");
  out.add("trace.overhead_ratio",
          ratio(median_of(s.traced, &JobTimes::seconds), median_of(s.one, &JobTimes::seconds)) - 1.0,
          "ratio");
  guarded(out, "quality", [&] { add_quality_metrics(inst, d, ref, out); });
  guarded(out, "probes", [&] {
    run_probes(inst, search ? ref.search.robust : inst.settings[0], out, &tracer);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const WorkloadDef d = define_workload(a);
  Tracer tracer(a.trace);
  Outcome out;
  std::cout << "config " << d.describe << " threads=1," << threads_n() << "\n";

  // The instance every job runs on; in the traced run its set-up is spanned.
  std::unique_ptr<Instance> inst;
  SetupTimes first_setup;
  JobRun ref;
  if (a.exact_counts) {
    // The exact-count check: counts of one traced, uncapped 1-thread job,
    // no timing.
    guarded(out, "job", [&] {
      inst = build_instance(d, a.seed, first_setup, nullptr);
      ref = run_job(*inst, d, 1, true, nullptr, false);
      out.check(true, "job");
      out.add("core.phase1_evals", static_cast<double>(ref.search.phase1_evaluations), "count");
      out.add("core.phase2_evals", static_cast<double>(ref.search.phase2_evaluations), "count");
      add_count_metrics(ref.counts, out);
    });
    print_json(out);
    return 0;
  }
  const bool ready = guarded(out, "setup", [&] {
    inst = build_instance(d, a.seed, first_setup, a.trace ? &tracer : nullptr);
    std::cout << "inputs " << std::hex << fingerprint(*inst, d) << std::dec << " nodes "
              << inst->graph.num_nodes() << " links " << inst->graph.num_links()
              << " catalog " << inst->all.size() << "\n";
    // Warm-up job: fills allocator and code caches, and is the reference
    // answer every timed job must reproduce byte for byte.
    ref = run_job(*inst, d, 1, false, nullptr, false);
    out.check(true, "reference job");
  });
  if (!ready) {
    print_json(out);
    return 0;
  }

  Samples s;
  measure(a, d, *inst, ref, tracer, out, s);
  guarded(out, "oracle check", [&] { check_oracle(*inst, d, a.seed, ref, out, &tracer); });

  const double t1 = median_of(s.one, &JobTimes::seconds);
  const double tn = median_of(s.par, &JobTimes::seconds);
  if (d.kind == Kind::kSearch)
    std::cout << "info optimize_s " << t1 << " optimize_par_s " << tn;
  else
    std::cout << "info whatif_scen_per_s " << ratio(ref.scenarios, t1)
              << " whatif_scen_per_s_par " << ratio(ref.scenarios, tn);
  std::cout << " jobs " << s.one.size() << "+" << s.par.size() << "+" << s.traced.size()
            << " setups " << s.setup_total.size() << "\n";

  if (a.trace) {
    add_traced_metrics(*inst, d, ref, s, tracer, out);
    tracer.write(a.trace_out, a.workload, a.seed);
  } else {
    out.add("solve_s", t1, "s");
    out.add("solve_par_s", tn, "s");
    out.add("setup_s", median(s.setup_total), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  print_json(out);
  return 0;
}
