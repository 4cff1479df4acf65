/// dtr_tool — command-line front end for the library: build (or load) a
/// topology, synthesize traffic, run the two-phase robust optimization, and
/// export the deployable artifacts (weight file, Graphviz map, failure
/// report). The `campaign` subcommand runs a whole sharded experiment
/// campaign from a spec file and writes the schema-versioned JSON artifact;
/// the `scenarios` subcommand generates a failure-scenario catalog (k-link
/// combinations, SRLG files, synthetic conduits) and lists/describes/exports
/// it as dtr.scenarios.v1 JSON; the `tail` subcommand pretty-prints a
/// dtr.events.v1 JSONL event stream as a live progress view.
///
/// Usage: `dtr_tool --help` prints every command's flag table (built from
/// the same cli::Flags tables that parse the command line) and examples.
///
/// Hardening (availability-aware optimization): --objective switches Phase 2
/// to a HardeningObjective — a scenario catalog (--harden-set, defaulting to
/// all single-link failures) aggregated as expected cost, weighted
/// percentile, or expected downtime minutes. --harden-rates weights the
/// catalog by per-element failure probabilities; --harden-period sets the
/// downtime period (minutes, default 43200 = one month).
///
/// Observability: --telemetry-json exports the run's counter registry as a
/// dtr.telemetry.v1 artifact (deterministic counters byte-identical for any
/// --workers / --inner-threads shape, wall-time data in a separate process
/// section); --trace-out exports the recorded phase/cell spans in Chrome
/// trace-event format (open in chrome://tracing or Perfetto). The campaign
/// JSON artifact itself is byte-identical with or without these flags.
/// Without them (or --metrics-port) a one-shot run attaches no registry
/// and collects nothing.
///
/// Streaming: --events-out attaches an event bus to the run and writes the
/// stream as dtr.events.v1 JSONL — deterministic-plane lines (iteration
/// records, phase markers) are byte-identical for any --workers /
/// --inner-threads shape; process-plane lines (heartbeats, progress, drops)
/// carry wall_ms and are excluded from golden diffs. Campaign cells opt in
/// with the `events = 1` spec key. A one-shot run's iteration records are
/// field for field its convergence trace (OptimizeResult::trace), so
/// `grep '"event":"iter"'` of the file replays it. --metrics-port N serves
/// the live registry in Prometheus text format on 127.0.0.1:N for the
/// duration of the run (port 0 picks an ephemeral port, printed at startup).
/// `dtr_tool tail FILE` pretty-prints an events file; --follow keeps reading
/// as the producer appends.
///
/// Campaign spec format (line-based; '#' starts a comment):
///   name = demo            # top-level keys: name, effort, seed
///   effort = quick
///   seed = 1
///   [cell]                 # one section per cell
///   id = rand16            # cell keys: id, topology, nodes, degree,
///   topology = rand        #   attachments, theta, avg_util|max_util,
///   nodes = 16             #   delay_fraction, seed, repeats, seed_stride,
///   degree = 5             #   critical_fraction, phase1b_samples,
///                          #   phase_iterations, floor,
///   repeats = 3            #   fluctuation (none|gaussian|hotspot), trials,
///                          #   epsilon,
///                          # topology also takes isp:k=v,... with keys pops,
///                          #   cores, backbone_degree, avg_degree (generated
///                          #   Rocketfuel-style ISP at `nodes` routers) or
///                          #   isp:file=PATH (load a dtr-graph file)
///   scenario_set = k_link  #   top_fraction, direction, server_fraction,
///   k_link = 2             #   client_fraction, scale_min, scale_max, and
///   rate_weights = 1       #   the scenario-catalog keys: scenario_set
///   objective = downtime   #   (none|all_links|all_nodes|k_link|srlg_file|
///   harden_set = geo_srlg  #   geo_srlg), k_link, scenario_budget,
///   harden_rate_weights=1  #   srlg_file, geo_grid, percentile, rate_weights
///                          # hardening keys (availability-aware Phase 2):
///                          #   objective (expected|percentile|downtime),
///                          #   harden_set (same kinds as scenario_set),
///                          #   harden_k, harden_budget, harden_srlg_file,
///                          #   harden_geo_grid, harden_rate_weights,
///                          #   harden_percentile, harden_period_min
///                          # telemetry = 1 embeds the cell's deterministic
///                          #   counter block in the artifact
///                          # events = 1 streams the cell's optimizer events
///                          #   when the run has an --events-out sink

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "experiments/campaign.h"
#include "experiments/results.h"
#include "graph/graph_io.h"
#include "graph/isp.h"
#include "graph/topology.h"
#include "routing/weights_io.h"
#include "scenarios/scenario_set.h"
#include "telemetry/events.h"
#include "telemetry/exposer.h"
#include "telemetry/telemetry.h"
#include "traffic/gravity.h"
#include "traffic/scaling.h"
#include "util/cli.h"
#include "util/presets.h"
#include "util/table.h"

namespace {

using namespace dtr;
namespace exp = dtr::experiments;

constexpr const char* kExamples = R"(Usage: dtr_tool --version   (print the schema versions)

--help / -h prints this text after any subcommand too. Exit status: 0 on
success, 1 on an internal error or a failed campaign cell, 2 on an input
error (bad flag or value, unreadable or malformed file, unwritable export).

Examples:
  dtr_tool --topology isp --report --out-weights isp.weights
  dtr_tool --topology rand --nodes 24 --degree 6 --out-dot net.dot
  dtr_tool --topology rand --objective downtime --harden-set geo_srlg
           --harden-rates --report
  dtr_tool campaign --spec sweep.campaign --json sweep.json --workers 0
  dtr_tool scenarios --set k_link --k 2 --budget 50 --rates --json k2.json
  dtr_tool scenarios --set geo_srlg --topology rand --nodes 30 --describe
)";

[[noreturn]] void usage_error(const std::string& message) {
  cli::usage_error("dtr_tool", message);
}

/// Which graph to build: the one-shot path and `scenarios` share it.
struct TopologyArgs {
  std::string topology = "rand";
  std::string in_graph;
  int nodes = 16;
  double degree = 5.0;
  std::uint64_t seed = 1;
  double theta_ms = 25.0;
};

/// Telemetry and event exports: the one-shot path and `campaign` share them.
struct ExportArgs {
  std::string telemetry_json, trace_out, events_out;
  int metrics_port = -1;  ///< -1 = no exposer; 0 = ephemeral port

  /// The registry only becomes a sink when something reads it.
  bool wants_registry() const {
    return !telemetry_json.empty() || !trace_out.empty() || metrics_port >= 0;
  }
};

struct Options {
  TopologyArgs topo;
  ExportArgs exports;
  UtilizationTarget util{UtilizationTarget::Kind::kAverage, 0.43};
  Effort effort = Effort::kQuick;
  double fraction = 0.15;
  std::string out_graph, out_weights, out_dot;
  bool report = false;
  /// Availability-aware hardening (the --objective / --harden-* flags);
  /// harden.enabled is set by --objective, mirroring the campaign spec's
  /// `objective=` opt-in.
  exp::HardenSpec harden;
  bool harden_flag_seen = false;  ///< a --harden-* flag without --objective is an error
};

struct CampaignArgs {
  std::string spec_path;
  exp::CampaignRunArgs run;
  ExportArgs exports;
};

struct ScenariosArgs {
  ScenariosArgs() { spec.kind = exp::ScenarioSpec::Kind::kAllLinks; }
  exp::ScenarioSpec spec;
  TopologyArgs topo;
  std::string json_path;
  bool list = false, describe = false;
};

struct TailArgs {
  std::string path;
  bool follow = false;
};

cli::Flags topology_flags(TopologyArgs& t) {
  return {
      cli::value("--topology", "rand|near|pl|isp", "topology generator (isp: built-in backbone)",
                 t.topology),
      cli::value("--nodes", "N", "routers of a rand/near/pl topology (default 16)", t.nodes),
      cli::value("--degree", "D", "mean node degree of rand/near (default 5)", t.degree),
      cli::value("--seed", "S", "topology, traffic and search seed (default 1)", t.seed),
      cli::value("--theta", "MS", "SLA delay bound in ms (default 25)", t.theta_ms),
      cli::value("--in-graph", "FILE", "load a dtr-graph file instead of generating one",
                 t.in_graph),
  };
}

/// The scenario-catalog flags. `scenarios` takes them bare (--set, --k, ...);
/// the one-shot hardening objective takes the same fields as --harden-set,
/// --harden-k, ...
cli::Flags catalog_flags(exp::ScenarioSpec& spec, const std::string& prefix) {
  const std::string p = "--" + prefix;
  return {
      {p + "set", "all_links|all_nodes|k_link|srlg_file|geo_srlg", "the failure catalog",
       [&spec](std::string_view v) {
         const auto kind = exp::parse_scenario_kind(v);
         if (!kind || *kind == exp::ScenarioSpec::Kind::kNone)
           cli::reject("one of all_links|all_nodes|k_link|srlg_file|geo_srlg", v);
         spec.kind = *kind;
       }},
      cli::value(p + "k", "N", "simultaneous failures of k_link (default 2)", spec.k),
      {p + "budget", "N", "k_link catalog size cap (default 100)",
       [&spec](std::string_view v) { spec.budget = cli::to_int(v, {.min = 1}); }},
      cli::value(p + "srlg-file", "FILE", "the .srlg sidecar of srlg_file", spec.srlg_file),
      cli::value(p + "geo-grid", "N", "conduit grid resolution of geo_srlg (default 4)",
                 spec.geo_grid),
      cli::toggle(p + "rates", "weight scenarios by per-element failure rates", spec.rate_weights),
  };
}

cli::Flags export_flags(ExportArgs& e) {
  return {
      cli::value("--telemetry-json", "FILE", "write the counter registry as dtr.telemetry.v1",
                 e.telemetry_json),
      cli::value("--trace-out", "FILE", "write the phase/cell spans as a Chrome trace",
                 e.trace_out),
      cli::value("--events-out", "FILE", "stream the run's events as dtr.events.v1 JSONL",
                 e.events_out),
      cli::value("--metrics-port", "N", "serve Prometheus metrics on 127.0.0.1:N (0 = any port)",
                 e.metrics_port, {0, 65535}),
  };
}

cli::Command one_shot_command(Options& opt) {
  cli::Flags harden = cli::join(
      {catalog_flags(opt.harden.catalog, "harden-"),
       cli::Flags{
           {"--harden-percentile", "P", "percentile of the percentile objective (default 0.95)",
            [&opt](std::string_view v) {
              const double p = cli::to_double(v);
              if (!(p >= 0.0 && p <= 1.0)) cli::reject("in [0, 1]", v);
              opt.harden.catalog.percentile = p;
            }},
           {"--harden-period", "MIN", "downtime period in minutes (default 43200)",
            [&opt](std::string_view v) {
              const double minutes = cli::to_double(v);
              if (!std::isfinite(minutes) || minutes <= 0.0)
                cli::reject("finite and > 0 minutes", v);
              opt.harden.period_minutes = minutes;
            }},
       }});
  for (cli::Flag& flag : harden) {
    flag.apply = [&opt, apply = std::move(flag.apply)](std::string_view v) {
      apply(v);
      opt.harden_flag_seen = true;
    };
  }
  cli::Flags run{
      {"--avg-util", "U", "scale traffic to mean min-hop link utilization U (default 0.43)",
       [&opt](std::string_view v) {
         opt.util = {UtilizationTarget::Kind::kAverage, cli::to_double(v)};
       }},
      {"--max-util", "U", "scale traffic to max min-hop link utilization U",
       [&opt](std::string_view v) {
         opt.util = {UtilizationTarget::Kind::kMax, cli::to_double(v)};
       }},
      {"--effort", "smoke|quick|full", "search budget preset (default quick)",
       [&opt](std::string_view v) {
         const auto effort = parse_effort(v);
         if (!effort) cli::reject("one of smoke|quick|full", v);
         opt.effort = *effort;
       }},
      cli::value("--fraction", "F", "critical share of links (default 0.15)", opt.fraction),
      {"--objective", "expected|percentile|downtime", "harden Phase 2 against a failure catalog",
       [&opt](std::string_view v) {
         const auto mode = parse_aggregation_mode(v);
         if (!mode) cli::reject("one of expected|percentile|downtime", v);
         opt.harden.mode = *mode;
         opt.harden.enabled = true;
       }},
  };
  cli::Flags outputs{
      cli::value("--out-graph", "FILE", "write the topology as a dtr-graph file", opt.out_graph),
      cli::value("--out-weights", "FILE", "write the robust weight setting", opt.out_weights),
      cli::value("--out-dot", "FILE", "write a Graphviz map", opt.out_dot),
      cli::toggle("--report", "print the all-single-link-failure report", opt.report),
  };
  return {"dtr_tool [flags]   (optimize one instance and export the results)",
          cli::join({topology_flags(opt.topo), std::move(run), std::move(harden),
                     std::move(outputs), export_flags(opt.exports)})};
}

cli::Command campaign_command(CampaignArgs& a) {
  cli::Flags own{
      cli::value("--spec", "FILE", "the campaign spec (keys: header of examples/dtr_tool.cpp)",
                 a.spec_path),
  };
  return {"dtr_tool campaign --spec FILE [flags]   (artifact on stdout without --json)",
          cli::join({std::move(own), exp::campaign_run_flags(a.run), export_flags(a.exports)})};
}

cli::Command scenarios_command(ScenariosArgs& a) {
  cli::Flags own{
      cli::value("--json", "FILE", "write the catalog as dtr.scenarios.v1 JSON (default stdout)",
                 a.json_path),
      cli::toggle("--list", "print the scenario names", a.list),
      cli::toggle("--describe", "print a table of the scenarios", a.describe),
  };
  return {"dtr_tool scenarios [flags]   (build a failure catalog and export it)",
          cli::join({catalog_flags(a.spec, ""), topology_flags(a.topo), std::move(own)})};
}

cli::Command tail_command(TailArgs& a) {
  return {"dtr_tool tail FILE [--follow]   (pretty-print a dtr.events.v1 stream)",
          {cli::toggle("--follow", "keep reading as the producer appends", a.follow)},
          {cli::value("FILE", "", "the events file", a.path)}};
}

struct BuiltTopology {
  Graph graph;
  std::vector<std::string> names;  ///< city names (ISP topology only)
};

/// Opens `path`, streams `body` into it and checks the bytes landed: an
/// open() that succeeded can still lose them (full disk, write error on a
/// special file), and ofstream reports that silently unless someone asks.
/// Either failure is an input error (exit 2).
void write_file(const std::string& path, const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (!out) usage_error("cannot write " + path);
  body(out);
  out.flush();
  if (!out) usage_error("failed writing " + path);
}

/// Writes the telemetry artifacts a run collected; empty paths skip that
/// export.
void export_telemetry(const telemetry::Registry& registry, const std::string& name,
                      const ExportArgs& exports) {
  if (!exports.telemetry_json.empty()) {
    write_file(exports.telemetry_json, [&](std::ostream& out) {
      telemetry::TelemetryJsonOptions options;
      options.include_spans = true;
      write_telemetry_json(out, registry, name, options);
    });
    std::cout << "wrote telemetry JSON to " << exports.telemetry_json << "\n";
  }
  if (!exports.trace_out.empty()) {
    write_file(exports.trace_out,
               [&](std::ostream& out) { write_chrome_trace(out, registry); });
    std::cout << "wrote Chrome trace to " << exports.trace_out << "\n";
  }
}

/// Drains `bus` into a dtr.events.v1 JSONL file: schema header, every queued
/// event in FIFO order, and a trailing process-plane drops record when the
/// ring overflowed (lossy streams must say so).
void export_events(telemetry::EventBus& bus, const std::string& path) {
  const std::vector<telemetry::Event> events = bus.drain();
  write_file(path, [&](std::ostream& out) {
    telemetry::write_events_header(out);
    telemetry::write_events_jsonl(out, events);
    if (bus.dropped() > 0) {
      telemetry::Event drops;
      drops.kind = telemetry::EventKind::kDrops;
      drops.plane = telemetry::Plane::kProcess;
      drops.value = bus.dropped();
      out << telemetry::event_json_line(drops) << "\n";
    }
  });
  std::cout << "wrote " << events.size() << " events to " << path << "\n";
}

/// Starts a metrics exposer when `port` >= 0, announcing the bound address
/// (meaningful with port 0, where the kernel picks). Bind failures are usage
/// errors: the user asked for an endpoint we cannot provide.
std::unique_ptr<telemetry::MetricsExposer> start_exposer(const telemetry::Registry& registry,
                                                         int port) {
  if (port < 0) return nullptr;
  try {
    auto exposer = std::make_unique<telemetry::MetricsExposer>(
        registry, static_cast<std::uint16_t>(port));
    std::cout << "serving metrics on http://127.0.0.1:" << exposer->port() << "/\n";
    return exposer;
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
}

/// The one topology-construction path for every subcommand, so scenario
/// catalogs, campaigns, and the optimizer front end all agree on element
/// ids for the same flags. Synthesized AND ISP delays are SLA-calibrated
/// like make_workload's (DESIGN §4/§4b), so rate-derived catalog weights
/// match what a campaign cell computes for the same topology; only loaded
/// graph files keep their delays verbatim.
BuiltTopology build_topology(const TopologyArgs& t) {
  BuiltTopology built;
  if (!t.in_graph.empty()) {
    std::ifstream in(t.in_graph);
    if (!in) usage_error("cannot open " + t.in_graph);
    built.graph = read_graph(in);
    return built;
  }
  if (t.topology == "isp") {
    IspTopology isp = make_isp_backbone();
    built.graph = std::move(isp.graph);
    built.names = std::move(isp.city_names);
    calibrate_delays_to_sla(built.graph, t.theta_ms);
    return built;
  }
  if (t.topology == "rand") {
    built.graph = make_rand_topo({t.nodes, t.degree, 500.0, t.seed});
  } else if (t.topology == "near") {
    built.graph = make_near_topo({t.nodes, t.degree, 500.0, t.seed});
  } else if (t.topology == "pl") {
    built.graph = make_pl_topo({t.nodes, 3, 500.0, t.seed});
  } else {
    usage_error("unknown topology: " + t.topology);
  }
  calibrate_delays_to_sla(built.graph, t.theta_ms);
  return built;
}

int run_campaign(const CampaignArgs& args) {
  if (args.spec_path.empty()) usage_error("campaign needs --spec FILE");
  std::ifstream in(args.spec_path);
  if (!in) usage_error("cannot open " + args.spec_path);

  exp::Campaign campaign = exp::parse_campaign_spec(in);
  if (!exp::select_cells(args.run, campaign, std::cout)) return 0;

  // The campaign artifact's bytes are identical with or without a registry
  // sink (test-enforced).
  telemetry::Registry registry;
  exp::CampaignOptions options = args.run.options;
  if (args.exports.wants_registry()) options.telemetry = &registry;
  // Sized for every cell's full smoke/quick stream at once: per-cell buses
  // are drained into this sink in one burst after the parallel barrier.
  telemetry::EventBus event_sink(1 << 18);
  if (!args.exports.events_out.empty()) options.events = &event_sink;
  const auto exposer = start_exposer(registry, args.exports.metrics_port);
  const exp::CampaignResult result = exp::run_campaign(campaign, options);

  const std::string& json_path = args.run.json_path;
  if (json_path.empty()) {
    // Artifact on stdout, human summary suppressed (pipe-friendly).
    exp::write_campaign_json(std::cout, result);
  } else {
    write_file(json_path, [&](std::ostream& out) { exp::write_campaign_json(out, result); });
    std::cout << "wrote campaign JSON to " << json_path << "\n";
    Table table({"cell", "reps", "error", "beta R", "beta NR"});
    for (const exp::CellResult& cell : result.cells) {
      table.row()
          .cell(cell.id)
          .integer(static_cast<long long>(cell.reps.size()))
          .cell(cell.error.empty() ? "-" : cell.error)
          .num(exp::aggregate_metric(cell, "beta_r").mean)
          .num(exp::aggregate_metric(cell, "beta_nr").mean);
    }
    table.print(std::cout);
  }
  export_telemetry(registry, campaign.name, args.exports);
  if (!args.exports.events_out.empty()) export_events(event_sink, args.exports.events_out);
  int failures = 0;
  for (const exp::CellResult& cell : result.cells)
    if (!cell.error.empty()) ++failures;
  return failures > 0 ? 1 : 0;
}

int run_scenarios(const ScenariosArgs& args) {
  const exp::ScenarioSpec& spec = args.spec;
  if (spec.kind == exp::ScenarioSpec::Kind::kSrlgFile && spec.srlg_file.empty())
    usage_error("scenarios --set srlg_file needs --srlg-file FILE");

  const Graph graph = build_topology(args.topo).graph;
  const ScenarioSet set = exp::build_scenario_set(spec, graph, args.topo.seed);
  const std::string set_name = exp::to_string(spec.kind);

  if (args.list) {
    for (std::size_t i = 0; i < set.size(); ++i) std::cout << set.name(i) << "\n";
    return 0;
  }
  if (args.describe) {
    Table table({"scenario", "kind", "links", "nodes", "weight"});
    for (std::size_t i = 0; i < set.size(); ++i) {
      std::size_t num_links = 0, num_nodes = 0;
      for_each_failed_element(
          set.scenario(i), [&](LinkId) { ++num_links; }, [&](NodeId) { ++num_nodes; });
      table.row()
          .cell(set.name(i))
          .cell(std::string(to_string(set.scenario(i).kind)))
          .integer(static_cast<long long>(num_links))
          .integer(static_cast<long long>(num_nodes))
          .num(set.weight(i));
    }
    std::cout << "scenario catalog '" << set_name << "': " << set.size()
              << " scenarios, total weight " << set.total_weight() << "\n";
    table.print(std::cout);
    return 0;
  }
  if (args.json_path.empty()) {
    write_scenario_set_json(std::cout, set, set_name);
  } else {
    write_file(args.json_path,
               [&](std::ostream& out) { write_scenario_set_json(out, set, set_name); });
    std::cout << "wrote " << set.size() << " scenarios to " << args.json_path << "\n";
  }
  return 0;
}

/// Extracts the raw value of `key` from one compact JSON line the repo's own
/// writers produced (string values lose their quotes; nested escapes are
/// un-escaped only for \" and \\). Returns "" when the key is absent. This is
/// a reader for OUR schema, not a JSON parser — the repo deliberately has no
/// general-purpose one.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i >= line.size()) return "";
  if (line[i] == '"') {
    std::string value;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      value.push_back(line[i]);
    }
    return value;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

/// One pretty-printed line per event, aligned for terminal reading:
///   [  det] iter          phase2 iter=41 evals=1930 link=7 cost=(0,8.125e6)
///   [ proc] progress      smoke-rand 1/2 (+142ms)
void print_event_line(const std::string& line, std::ostream& os) {
  if (line.empty()) return;
  const std::string event = json_field(line, "event");
  if (event.empty()) return;  // not an event line; skip silently
  const std::string plane = json_field(line, "plane");
  os << (plane == "det" ? "[  det] " : "[ proc] ");
  os << event;
  for (std::size_t pad = event.size(); pad < 14; ++pad) os << ' ';  // longest kind + 1
  const std::string label = json_field(line, "label");
  if (event == "schema") {
    os << json_field(line, "schema");
  } else if (event == "iter") {
    os << label << " iter=" << json_field(line, "iter")
       << " evals=" << json_field(line, "evals");
    if (json_field(line, "restart") == "true") os << " restart";
    else os << " link=" << json_field(line, "link");
    os << " cost=(" << json_field(line, "lambda") << "," << json_field(line, "phi")
       << ")";
  } else if (event == "phase_end") {
    os << label << " iter=" << json_field(line, "iter")
       << " evals=" << json_field(line, "evals") << " cost=("
       << json_field(line, "lambda") << "," << json_field(line, "phi") << ")";
  } else if (event == "progress") {
    os << label << " " << json_field(line, "done");
    const std::string total = json_field(line, "total");
    if (!total.empty() && total != "0") os << "/" << total;
  } else if (event == "counter_delta") {
    os << label << " +" << json_field(line, "delta");
  } else if (event == "drops") {
    os << json_field(line, "dropped") << " events dropped";
  } else {
    os << label;  // phase_start / cell_start / cell_finish carry only a label
  }
  const std::string wall = json_field(line, "wall_ms");
  if (!wall.empty()) os << " (+" << wall << "ms)";
  os << "\n";
}

/// `dtr_tool tail FILE [--follow]` — live progress view over an events file.
/// --follow keeps polling for appended lines (reader-side tail -f; the writer
/// needs no cooperation) until interrupted.
int run_tail(const TailArgs& args) {
  if (args.path.empty()) usage_error("tail needs an events FILE");
  std::ifstream in(args.path);
  if (!in) usage_error("cannot open " + args.path);
  std::string line;
  for (;;) {
    while (std::getline(in, line)) print_event_line(line, std::cout);
    if (!args.follow) break;
    std::cout.flush();
    in.clear();  // getline hit EOF; clear so appended bytes become readable
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return 0;
}

/// Below this share of base-cache misses patched from a donor, the search's
/// single-link probes are being rebuilt from scratch: the incumbent they
/// perturb has left the cache.
constexpr double kMinDonorRatio = 0.5;

/// One-line base-cache health of the run, plus a `warn:` line when the
/// donor ratio is under kMinDonorRatio. Cache counters depend on the thread
/// shape, so this goes to stdout only, never into an artifact.
void print_cache_health(std::ostream& os, const EvaluatorCacheStats& s) {
  const double donor_ratio =
      s.misses > 0 ? static_cast<double>(s.weight_patched) / static_cast<double>(s.misses)
                   : 1.0;
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.3f", donor_ratio);
  os << "cache: hits=" << s.hits << " misses=" << s.misses
     << " donor_patched=" << s.weight_patched
     << " scratch_builds=" << s.misses - s.weight_patched << " donor_ratio=" << ratio
     << "\n";
  if (donor_ratio < kMinDonorRatio)
    os << "warn: only " << ratio << " of base-cache misses were donor-patched (< "
       << kMinDonorRatio << "): probes are rebuilt from scratch\n";
}

/// The one-shot path: build, optimize, report, export.
int run_one_shot(const Options& opt) {
  if (opt.harden_flag_seen && !opt.harden.enabled)
    usage_error("--harden-* flags need --objective expected|percentile|downtime");
  if (opt.harden.enabled && opt.harden.catalog.kind == exp::ScenarioSpec::Kind::kSrlgFile &&
      opt.harden.catalog.srlg_file.empty())
    usage_error("--harden-set srlg_file needs --harden-srlg-file FILE");

  // ---- topology
  BuiltTopology built = build_topology(opt.topo);
  Graph& graph = built.graph;
  const std::vector<std::string>& names = built.names;
  EvalParams params;
  params.sla.theta_ms = opt.topo.theta_ms;

  // ---- traffic
  ClassedTraffic traffic =
      split_by_class(make_gravity_traffic(graph, {1.0, 1.0, opt.topo.seed + 1}), 0.30);
  scale_to_utilization(graph, traffic, opt.util);

  // ---- optimize
  telemetry::Registry registry;
  telemetry::Registry* telemetry_sink = opt.exports.wants_registry() ? &registry : nullptr;
  EvaluatorConfig eval_config;
  eval_config.telemetry = telemetry_sink;
  const Evaluator evaluator(graph, traffic, params, eval_config);
  OptimizerConfig config = default_optimizer_config(opt.effort, opt.topo.seed);
  config.critical_fraction = opt.fraction;
  config.telemetry = telemetry_sink;
  telemetry::EventBus events;
  if (!opt.exports.events_out.empty()) config.events = &events;
  const auto exposer = start_exposer(registry, opt.exports.metrics_port);
  if (opt.harden.enabled) {
    config.objective = exp::build_hardening_objective(opt.harden, graph,
                                                      opt.topo.seed + opt.harden.seed_offset);
  }
  RobustOptimizer optimizer(evaluator, config);
  const OptimizeResult result = optimizer.optimize();

  std::cout << "topology: " << (opt.topo.in_graph.empty() ? opt.topo.topology : opt.topo.in_graph)
            << "  nodes=" << graph.num_nodes() << " links=" << graph.num_links()
            << " (arcs=" << graph.num_arcs() << ")\n";
  std::cout << "normal cost regular: " << to_string(result.regular_cost)
            << "\nnormal cost robust:  " << to_string(result.robust_normal_cost)
            << "\ncritical set |Ec| = " << result.critical.size() << "\n";
  if (opt.harden.enabled) {
    std::cout << "hardening objective: " << to_string(opt.harden.mode)
              << "  catalog=" << result.catalog_size
              << " |Sc|=" << result.critical_scenarios.size()
              << " samples=" << result.scenario_samples << "\n";
    if (std::isfinite(result.robust_objective_value))
      std::cout << "robust objective value: " << result.robust_objective_value << "\n";
  }

  print_cache_health(std::cout, evaluator.base_cache_stats());
  // Criticality samples fed to the ranking vs. evaluations run for them:
  // repeated (setting, scenario) draws reuse one evaluation.
  const std::size_t drawn =
      result.phase1a_samples + result.phase1b_samples + result.scenario_samples;
  std::cout << "samples: drawn=" << drawn << " evaluated=" << result.samples_evaluated << "\n";

  // ---- exports
  if (!opt.out_graph.empty()) {
    write_file(opt.out_graph, [&](std::ostream& out) { write_graph(out, graph); });
    std::cout << "wrote graph to " << opt.out_graph << "\n";
  }
  if (!opt.out_weights.empty()) {
    write_file(opt.out_weights, [&](std::ostream& out) {
      out << "# robust DTR weights (delay throughput), seed " << opt.topo.seed << "\n";
      write_weights(out, result.robust);
    });
    std::cout << "wrote robust weights to " << opt.out_weights << "\n";
  }
  if (!opt.out_dot.empty()) {
    write_file(opt.out_dot, [&](std::ostream& out) { out << to_dot(graph, names); });
    std::cout << "wrote Graphviz map to " << opt.out_dot << "\n";
  }

  // ---- failure report
  if (opt.report) {
    const auto scenarios = all_link_failures(graph);
    const FailureProfile regular = profile_failures(evaluator, result.regular, scenarios);
    const FailureProfile robust = profile_failures(evaluator, result.robust, scenarios);
    Table table({"routing", "avg violations", "top-10%", "sum Phi_fail"});
    table.row().cell("regular").num(regular.beta()).num(regular.beta_top()).num(
        regular.phi_sum(), 0);
    table.row().cell("robust").num(robust.beta()).num(robust.beta_top()).num(
        robust.phi_sum(), 0);
    std::cout << "\nAll single-link failures:\n";
    table.print(std::cout);
  }

  // ---- telemetry export (main owns the evaluator, so it flushes the cache
  // totals — exactly once, after every consumer above is done with it)
  if (telemetry_sink != nullptr) {
    evaluator.flush_cache_stats_to_telemetry();
    export_telemetry(registry, "dtr_tool", opt.exports);
  }
  if (!opt.exports.events_out.empty()) export_events(events, opt.exports.events_out);
  return 0;
}

int dispatch(int argc, char** argv) {
  const std::string subcommand = argc >= 2 ? argv[1] : "";
  if (subcommand == "--version") {
    std::cout << "dtr_tool schemas: " << exp::kCampaignSchema << " "
              << telemetry::kTelemetrySchema << " " << telemetry::kEventsSchema << "\n";
    return 0;
  }
  Options one_shot;
  CampaignArgs campaign;
  ScenariosArgs scenarios;
  TailArgs tail;
  const cli::Command commands[] = {one_shot_command(one_shot), campaign_command(campaign),
                                   scenarios_command(scenarios), tail_command(tail)};
  const int which = subcommand == "campaign"    ? 1
                    : subcommand == "scenarios" ? 2
                    : subcommand == "tail"      ? 3
                                                : 0;
  // Bad input throws cli::Error, which main maps to exit 2.
  if (cli::parse(commands[which], argc, argv, which == 0 ? 1 : 2) == cli::Parsed::kHelp) {
    for (const cli::Command& command : commands) {
      cli::print_usage(std::cout, command);
      std::cout << "\n";
    }
    std::cout << kExamples;
    return 0;
  }
  switch (which) {
    case 1: return run_campaign(campaign);
    case 2: return run_scenarios(scenarios);
    case 3: return run_tail(tail);
    default: return run_one_shot(one_shot);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Everything the dispatch throws ends here instead of in std::terminate:
  // input errors — bad flags and values, malformed spec or graph files,
  // invalid generator parameters — exit 2 like every other usage error;
  // anything else is an internal failure (exit 1).
  try {
    return dispatch(argc, argv);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  } catch (const std::out_of_range& e) {
    usage_error(e.what());
  } catch (const std::runtime_error& e) {
    usage_error(e.what());
  } catch (const std::exception& e) {
    std::cerr << "dtr_tool: " << e.what() << "\n";
  } catch (...) {
    std::cerr << "dtr_tool: unknown error\n";
  }
  return 1;
}
