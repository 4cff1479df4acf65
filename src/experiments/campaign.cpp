#include "experiments/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/metrics.h"
#include "routing/failures.h"
#include "scenarios/scenario_eval.h"
#include "scenarios/srlg.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dtr::experiments {

namespace {

CellResult run_cell(const CampaignCell& cell, Effort effort, CellContext ctx,
                    telemetry::Registry* reg, telemetry::EventBus* bus) {
  ctx.telemetry = reg;
  ctx.events = bus;
  CellResult result;
  result.id = cell.id;
  result.label = cell.spec.label();
  const auto heartbeat = [&](telemetry::EventKind kind) {
    telemetry::Event e;
    e.kind = kind;
    e.label = cell.id;
    telemetry::publish_process(bus, std::move(e));  // null-safe
  };
  heartbeat(telemetry::EventKind::kCellStart);
  try {
    // The span covers every rep; campaign.* counters count the WORK the
    // schedule was given, so they merge to the same totals for any shape.
    telemetry::ScopedSpan cell_span(reg, "cell:" + cell.id);
    if (reg != nullptr) {
      reg->counter("campaign.cells").add(1);
      reg->counter("campaign.reps").add(static_cast<std::uint64_t>(cell.repeats));
    }
    telemetry::Snapshot last_snapshot;
    for (int rep = 0; rep < cell.repeats; ++rep) {
      const std::uint64_t rep_seed =
          cell.spec.seed + static_cast<std::uint64_t>(rep) * cell.seed_stride;
      result.reps.push_back(cell.body ? cell.body(cell, effort, rep_seed, ctx)
                                      : standard_cell_rep(cell, effort, rep_seed, ctx));
      if (bus != nullptr) {
        telemetry::Event e;
        e.kind = telemetry::EventKind::kProgress;
        e.label = cell.id;
        e.done = static_cast<std::uint64_t>(rep + 1);
        e.total = static_cast<std::uint64_t>(cell.repeats);
        telemetry::publish_process(bus, std::move(e));
        if (reg != nullptr) {
          // Per-rep registry snapshot delta: what this rep added to the
          // cell's deterministic counters (process plane — the cadence is
          // execution-driven, not part of the deterministic stream).
          telemetry::Snapshot now = reg->snapshot(telemetry::Plane::kDeterministic);
          telemetry::publish_snapshot_delta(bus, last_snapshot, now);
          last_snapshot = std::move(now);
        }
      }
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  heartbeat(telemetry::EventKind::kCellFinish);
  if (cell.telemetry && reg != nullptr) {
    // Deterministic counters only: the embedded block must keep the artifact
    // byte-identical across execution shapes.
    const telemetry::Snapshot snap = reg->snapshot(telemetry::Plane::kDeterministic);
    for (const auto& c : snap.counters) result.telemetry.emplace_back(c.name, c.value);
  }
  return result;
}

}  // namespace

std::string to_string(FluctuationSpec::Model m) {
  switch (m) {
    case FluctuationSpec::Model::kNone: return "none";
    case FluctuationSpec::Model::kGaussian: return "gaussian";
    case FluctuationSpec::Model::kHotSpot: return "hotspot";
  }
  return "?";
}

std::string to_string(ScenarioSpec::Kind kind) {
  switch (kind) {
    case ScenarioSpec::Kind::kNone: return "none";
    case ScenarioSpec::Kind::kAllLinks: return "all_links";
    case ScenarioSpec::Kind::kAllNodes: return "all_nodes";
    case ScenarioSpec::Kind::kKLink: return "k_link";
    case ScenarioSpec::Kind::kSrlgFile: return "srlg_file";
    case ScenarioSpec::Kind::kGeoSrlg: return "geo_srlg";
  }
  return "?";
}

std::optional<ScenarioSpec::Kind> parse_scenario_kind(std::string_view text) {
  for (const auto kind :
       {ScenarioSpec::Kind::kNone, ScenarioSpec::Kind::kAllLinks, ScenarioSpec::Kind::kAllNodes,
        ScenarioSpec::Kind::kKLink, ScenarioSpec::Kind::kSrlgFile, ScenarioSpec::Kind::kGeoSrlg})
    if (to_string(kind) == text) return kind;
  return std::nullopt;
}

ScenarioSet build_scenario_set(const ScenarioSpec& spec, const Graph& g,
                               std::uint64_t seed) {
  ScenarioSet set;
  switch (spec.kind) {
    case ScenarioSpec::Kind::kNone:
      return set;
    case ScenarioSpec::Kind::kAllLinks:
      set = single_link_scenarios(g);
      break;
    case ScenarioSpec::Kind::kAllNodes:
      set = single_node_scenarios(g);
      break;
    case ScenarioSpec::Kind::kKLink:
      set = enumerate_k_link_failures(g, {spec.k, spec.budget, seed});
      break;
    case ScenarioSpec::Kind::kSrlgFile: {
      std::ifstream in(spec.srlg_file);
      if (!in)
        throw std::runtime_error("build_scenario_set: cannot open srlg file: " +
                                 spec.srlg_file);
      set = srlg_scenario_set(g, parse_srlg(in));
      break;
    }
    case ScenarioSpec::Kind::kGeoSrlg:
      set = srlg_scenario_set(g, synthesize_geo_srlgs(g, {.grid = spec.geo_grid}));
      break;
  }
  if (spec.rate_weights) apply_rate_weights(set, derive_failure_rates(g));
  return set;
}

HardeningObjective build_hardening_objective(const HardenSpec& spec, const Graph& g,
                                             std::uint64_t seed) {
  ScenarioSpec catalog = spec.catalog;
  // `objective=` alone hardens against all single-link failures — the
  // baseline the SRLG-vs-single-link comparisons measure against.
  if (catalog.kind == ScenarioSpec::Kind::kNone)
    catalog.kind = ScenarioSpec::Kind::kAllLinks;
  HardeningObjective objective;
  objective.set = build_scenario_set(catalog, g, seed);
  objective.mode = spec.mode;
  objective.percentile = catalog.percentile;
  objective.period_minutes = spec.period_minutes;
  if (objective.set.empty())
    throw std::runtime_error("build_hardening_objective: empty hardening catalog");
  return objective;
}

CampaignResult run_campaign(const Campaign& campaign, const CampaignOptions& options) {
  if (options.workers < 0)
    throw std::invalid_argument("run_campaign: negative workers");
  if (options.inner_threads < 0)
    throw std::invalid_argument("run_campaign: negative inner_threads");

  const std::size_t requested_workers =
      options.workers == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : static_cast<std::size_t>(options.workers);
  // No point spinning up more shards than cells.
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(requested_workers, campaign.cells.size()));

  // Nested-parallelism guard: exactly one level multi-threads. Cells in
  // parallel force the inner engine sequential; the inner pool below only
  // materializes when cells execute one at a time. Cell-level parallelism
  // the clamp left unused (fewer cells than requested workers) flows to the
  // inner engine instead of idling.
  int inner_threads = workers > 1 ? 1 : options.inner_threads;
  if (workers <= 1 && inner_threads == 1 && requested_workers > 1 &&
      !campaign.cells.empty())
    inner_threads = static_cast<int>(requested_workers);

  std::optional<ThreadPool> inner_pool;
  if (workers <= 1 && inner_threads != 1) {
    inner_pool.emplace(inner_threads);
    if (inner_pool->num_workers() <= 1) inner_pool.reset();
  }
  const CellContext ctx{inner_pool ? &*inner_pool : nullptr,
                        inner_pool ? static_cast<int>(inner_pool->num_workers()) : 1,
                        options.eval_config};

  CampaignResult out;
  out.name = campaign.name;
  out.effort = to_string(campaign.effort);
  out.seed = campaign.seed;
  out.cell_workers = static_cast<int>(workers);
  out.inner_threads = ctx.inner_threads;
  out.cells.resize(campaign.cells.size());

  // One registry PER CELL, merged in campaign order after the barrier: the
  // sink's counter totals are then independent of which shard ran which cell
  // and of cell-parallel vs inner-parallel execution. Allocated only for the
  // cells that need one (a sink is set, or the cell embeds its block).
  telemetry::Registry* sink = options.telemetry;
  std::vector<std::unique_ptr<telemetry::Registry>> cell_regs(campaign.cells.size());
  // Event buses mirror the registry pattern: one PER opted-in CELL, drained
  // into the sink in campaign order after the barrier, so the sink's
  // deterministic-plane line sequence is shape-independent.
  telemetry::EventBus* event_sink = options.events;
  std::vector<std::unique_ptr<telemetry::EventBus>> cell_buses(campaign.cells.size());
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    if (sink != nullptr || campaign.cells[i].telemetry)
      cell_regs[i] = std::make_unique<telemetry::Registry>();
    if (event_sink != nullptr && campaign.cells[i].events)
      cell_buses[i] = std::make_unique<telemetry::EventBus>();
  }

  ThreadPool cell_pool(static_cast<int>(workers));
  // Cells land in slot i regardless of which shard ran them, so the result
  // (and its JSON bytes) is independent of the execution schedule.
  parallel_for(&cell_pool, campaign.cells.size(), [&](std::size_t i) {
    out.cells[i] = run_cell(campaign.cells[i], campaign.effort, ctx, cell_regs[i].get(),
                            cell_buses[i].get());
  });

  if (sink != nullptr) {
    for (const auto& reg : cell_regs) {
      if (!reg) continue;
      sink->merge_counters(reg->snapshot(telemetry::Plane::kDeterministic));
      sink->merge_counters(reg->snapshot(telemetry::Plane::kProcess),
                           telemetry::Plane::kProcess);
      sink->merge_spans(reg->spans());
    }
  }
  if (event_sink != nullptr) {
    for (const auto& bus : cell_buses) {
      if (!bus) continue;
      for (telemetry::Event& e : bus->drain()) event_sink->publish(std::move(e));
      if (const std::uint64_t dropped = bus->dropped(); dropped > 0) {
        telemetry::Event e;
        e.kind = telemetry::EventKind::kDrops;
        e.value = dropped;
        telemetry::publish_process(event_sink, std::move(e));
      }
    }
  }

  return out;
}

std::vector<LinkId> worst_failure_links(const FailureProfile& profile, double fraction) {
  if (!(fraction >= 0.0 && fraction <= 1.0))
    throw std::invalid_argument("worst_failure_links: fraction must lie in [0, 1]");
  std::vector<std::size_t> order(profile.violations.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profile.violations[a] != profile.violations[b])
      return profile.violations[a] > profile.violations[b];
    if (profile.phi[a] != profile.phi[b]) return profile.phi[a] > profile.phi[b];
    return a < b;
  });
  if (order.empty()) return {};
  const auto want = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(order.size())));
  const std::size_t count = std::min(order.size(), std::max<std::size_t>(2, want));
  std::vector<LinkId> top;
  top.reserve(count);
  for (std::size_t i = 0; i < count; ++i) top.push_back(static_cast<LinkId>(order[i]));
  return top;
}

std::vector<StressSeries> evaluate_fluctuations(const Workload& base,
                                                std::span<const WeightSetting> routings,
                                                std::span<const LinkId> top,
                                                const FluctuationSpec& fluct,
                                                std::uint64_t seed, ThreadPool* pool,
                                                const EvaluatorConfig& eval_config) {
  if (fluct.trials < 0)
    throw std::invalid_argument("evaluate_fluctuations: negative trials");
  const auto trials = static_cast<std::size_t>(fluct.trials);

  // One sequential stream draws every perturbed matrix, so the trial set is
  // identical however the evaluation below is sharded.
  std::vector<ClassedTraffic> actual;
  actual.reserve(trials);
  Rng rng(seed);
  for (std::size_t t = 0; t < trials; ++t) {
    switch (fluct.model) {
      case FluctuationSpec::Model::kGaussian:
        actual.push_back(apply_gaussian_fluctuation(base.traffic, fluct.gaussian, rng));
        break;
      case FluctuationSpec::Model::kHotSpot:
        actual.push_back(apply_hot_spot(base.traffic, fluct.hot_spot, rng));
        break;
      case FluctuationSpec::Model::kNone:
        actual.push_back(base.traffic);
        break;
    }
  }

  // Per-trial slabs: [trial][routing][top index].
  const std::size_t cols = routings.size() * top.size();
  std::vector<double> violations(trials * cols), phi(trials * cols);
  // One evaluator (and thus one base cache) per trial, reused for every
  // routing and failure, on top of the per-worker routing scratch the
  // Evaluator keeps thread-local. With eval_config.incremental each routing's
  // base is built on its first failure evaluation and delta-patched for the
  // rest.
  parallel_for(pool, trials, [&](std::size_t t) {
    const Evaluator evaluator(base.graph, actual[t], base.params, eval_config);
    const double denom = std::max(evaluator.phi_uncap(), 1e-9);
    for (std::size_t r = 0; r < routings.size(); ++r) {
      for (std::size_t i = 0; i < top.size(); ++i) {
        const EvalResult res = evaluator.evaluate(routings[r], FailureScenario::link(top[i]));
        violations[t * cols + r * top.size() + i] = static_cast<double>(res.sla_violations);
        phi[t * cols + r * top.size() + i] = res.phi / denom;
      }
    }
  });

  // Ordered reduction over trials keeps the statistics execution-shape
  // independent.
  std::vector<StressSeries> out(routings.size());
  for (std::size_t r = 0; r < routings.size(); ++r) {
    for (std::size_t i = 0; i < top.size(); ++i) {
      RunningStats v_stats, phi_stats;
      for (std::size_t t = 0; t < trials; ++t) {
        v_stats.add(violations[t * cols + r * top.size() + i]);
        phi_stats.add(phi[t * cols + r * top.size() + i]);
      }
      out[r].mean_violations.push_back(v_stats.mean());
      out[r].std_violations.push_back(v_stats.stddev());
      out[r].mean_phi.push_back(phi_stats.mean());
      out[r].std_phi.push_back(phi_stats.stddev());
    }
  }
  return out;
}

MetricRow standard_cell_rep(const CampaignCell& cell, Effort effort,
                            std::uint64_t rep_seed, const CellContext& ctx) {
  WorkloadSpec spec = cell.spec;
  spec.seed = rep_seed;
  Workload w = make_workload(spec);
  if (cell.graph_override != nullptr) w.graph = *cell.graph_override;
  EvaluatorConfig eval_config = ctx.eval_config;
  eval_config.telemetry = ctx.telemetry;
  const Evaluator evaluator(w.graph, w.traffic, w.params, eval_config);
  const OptimizeResult opt =
      run_optimizer(evaluator, effort, rep_seed, [&](OptimizerConfig& config) {
        config.num_threads = ctx.inner_threads;
        config.telemetry = ctx.telemetry;
        config.events = ctx.events;
        if (cell.critical_fraction > 0.0)
          config.critical_fraction = cell.critical_fraction;
        if (cell.phase1b_samples > 0)
          config.max_phase1b_samples = cell.phase1b_samples;
        if (cell.phase_iterations > 0) {
          config.phase1.max_iterations = cell.phase_iterations;
          config.phase2.max_iterations = cell.phase_iterations;
        }
        if (cell.harden.enabled)
          config.objective = build_hardening_objective(
              cell.harden, w.graph, rep_seed + cell.harden.seed_offset);
      });

  const std::vector<FailureScenario> scenarios = all_link_failures(w.graph);
  const FailureProfile robust =
      profile_failures(evaluator, opt.robust, scenarios, ctx.inner_pool);
  const FailureProfile regular =
      profile_failures(evaluator, opt.regular, scenarios, ctx.inner_pool);

  MetricRow row;
  row.seed = rep_seed;
  row.values = {
      {"nodes", static_cast<double>(w.graph.num_nodes())},
      {"links", static_cast<double>(w.graph.num_links())},
      {"arcs", static_cast<double>(w.graph.num_arcs())},
      {"beta_r", robust.beta()},
      {"beta_nr", regular.beta()},
      {"beta_top10_r", robust.beta_top(0.10)},
      {"beta_top10_nr", regular.beta_top(0.10)},
      {"phi_degradation_pct",
       (opt.robust_normal_cost.phi / std::max(opt.regular_cost.phi, 1e-9) - 1.0) *
           100.0},
  };
  if (cell.unavoidable_floor) {
    row.values.emplace_back(
        "beta_floor",
        mean(unavoidable_violation_profile(evaluator, scenarios, ctx.inner_pool)));
  }
  if (cell.harden.enabled) {
    // Hardening diagnostics: what the objective-driven optimizer saw. These
    // keys only appear for cells with an `objective=` directive, so existing
    // artifacts keep their bytes.
    row.values.emplace_back("opt_scn_count", static_cast<double>(opt.catalog_size));
    row.values.emplace_back("opt_scn_critical",
                            static_cast<double>(opt.critical_scenarios.size()));
    row.values.emplace_back("opt_scn_samples",
                            static_cast<double>(opt.scenario_samples));
    row.values.emplace_back("opt_scn_converged",
                            opt.scenario_rank_converged ? 1.0 : 0.0);
    if (std::isfinite(opt.robust_objective_value))
      row.values.emplace_back("opt_objective", opt.robust_objective_value);
  }

  if (cell.fluctuation.model != FluctuationSpec::Model::kNone &&
      cell.fluctuation.trials > 0) {
    // Stress the failures that hurt the UNPROTECTED routing most — ranking
    // by the robust routing's own worst failures would condition the
    // comparison against it.
    const std::vector<LinkId> top =
        worst_failure_links(regular, cell.fluctuation.top_fraction);
    const WeightSetting routings[] = {opt.robust, opt.regular};
    const std::vector<StressSeries> stress = evaluate_fluctuations(
        w, routings, top, cell.fluctuation, rep_seed + cell.fluctuation.seed_offset,
        ctx.inner_pool, ctx.eval_config);
    std::vector<double> base_violations, base_phi;
    const double denom = std::max(robust.phi_uncap, 1e-9);
    for (const LinkId l : top) {
      base_violations.push_back(robust.violations[l]);
      base_phi.push_back(robust.phi[l] / denom);
    }
    row.series = {
        {"pert_violations_r_mean", stress[0].mean_violations},
        {"pert_violations_r_std", stress[0].std_violations},
        {"pert_violations_nr_mean", stress[1].mean_violations},
        {"pert_violations_nr_std", stress[1].std_violations},
        {"pert_phi_r_mean", stress[0].mean_phi},
        {"pert_phi_r_std", stress[0].std_phi},
        {"pert_phi_nr_mean", stress[1].mean_phi},
        {"pert_phi_nr_std", stress[1].std_phi},
        {"base_violations_r", base_violations},
        {"base_phi_r", base_phi},
    };
    row.values.emplace_back("pert_beta_top_r", mean(stress[0].mean_violations));
    row.values.emplace_back("pert_beta_top_nr", mean(stress[1].mean_violations));
    row.values.emplace_back("base_beta_top_r", mean(base_violations));
  }

  if (cell.scenario.kind != ScenarioSpec::Kind::kNone) {
    // Weighted scenario-set profile over the cell's catalog (compound /
    // SRLG scenarios ride the incremental base-patching path). Metrics only
    // appear for cells that ask for a catalog, so existing artifacts are
    // untouched byte for byte.
    const ScenarioSet set = build_scenario_set(cell.scenario, w.graph,
                                               rep_seed + cell.scenario.seed_offset);
    row.values.emplace_back("scn_count", static_cast<double>(set.size()));
    row.values.emplace_back("scn_total_weight", set.total_weight());
    if (!set.empty()) {
      const double denom = std::max(evaluator.phi_uncap(), 1e-9);
      const ScenarioSummary r =
          summarize_scenarios(evaluator, opt.robust, set, cell.scenario.percentile,
                              ctx.inner_pool, cell.harden.period_minutes);
      const ScenarioSummary nr =
          summarize_scenarios(evaluator, opt.regular, set, cell.scenario.percentile,
                              ctx.inner_pool, cell.harden.period_minutes);
      row.values.emplace_back("scn_exp_viol_r", r.expected_violations);
      row.values.emplace_back("scn_exp_viol_nr", nr.expected_violations);
      row.values.emplace_back("scn_p_viol_r", r.percentile_violations);
      row.values.emplace_back("scn_p_viol_nr", nr.percentile_violations);
      row.values.emplace_back("scn_worst_viol_r", r.worst_violations);
      row.values.emplace_back("scn_worst_viol_nr", nr.worst_violations);
      row.values.emplace_back("scn_exp_phi_r", r.expected_phi / denom);
      row.values.emplace_back("scn_exp_phi_nr", nr.expected_phi / denom);
      row.values.emplace_back("scn_worst_phi_r", r.worst_phi / denom);
      row.values.emplace_back("scn_worst_phi_nr", nr.worst_phi / denom);
      if (cell.harden.enabled) {
        // Availability headline: expected avoidable downtime minutes of each
        // routing over the REPORTING catalog — the apples-to-apples number
        // the SLA-availability campaigns compare across hardening sets.
        // Hardening-gated so pre-existing scenario cells keep their bytes.
        row.values.emplace_back("scn_exp_downtime_r", r.expected_downtime_min);
        row.values.emplace_back("scn_exp_downtime_nr", nr.expected_downtime_min);
      }
    }
  }
  // This rep OWNS `evaluator`, so it publishes the cache totals — exactly
  // once, here (process plane; no-op when telemetry is off for the cell).
  evaluator.flush_cache_stats_to_telemetry();
  return row;
}

cli::Flags campaign_run_flags(CampaignRunArgs& args) {
  constexpr cli::Range<int> kThreads{0, 4096};  // 0 = hardware concurrency
  return {
      cli::value("--json", "FILE", "write the campaign JSON artifact to FILE", args.json_path),
      cli::value("--filter", "SUBSTR", "run only cells whose id contains SUBSTR", args.filter),
      cli::toggle("--list", "print the selected cell ids and exit", args.list),
      cli::value("--workers", "N", "cell-level shards (0 = hardware concurrency, the default)",
                 args.options.workers, kThreads),
      cli::value("--inner-threads", "N", "per-cell engine threads when cells run one at a time",
                 args.options.inner_threads, kThreads),
      {"--no-incremental", "", "evaluate with the full-recompute reference oracle",
       [&args](std::string_view) { args.options.eval_config.incremental = false; }},
  };
}

bool select_cells(const CampaignRunArgs& args, Campaign& campaign, std::ostream& os) {
  filter_cells(campaign, args.filter);
  if (!args.list) return true;
  for (const CampaignCell& cell : campaign.cells) os << cell.id << "\n";
  return false;
}

void filter_cells(Campaign& campaign, std::string_view substr) {
  if (substr.empty()) return;
  std::erase_if(campaign.cells, [&](const CampaignCell& cell) {
    return cell.id.find(substr) == std::string::npos;
  });
}

namespace {

std::string trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return std::string(s.substr(begin, end - begin + 1));
}

}  // namespace

Campaign parse_campaign_spec(std::istream& in) {
  Campaign campaign;
  campaign.name = "campaign";
  CampaignCell* cell = nullptr;
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& message) -> void {
    throw std::runtime_error("campaign spec line " + std::to_string(lineno) + ": " +
                             message);
  };
  // The strict cli parsers insist the whole token parses (no silently
  // truncated "12x7"), doubles are finite and seeds don't wrap a minus sign.
  // Error messages name the offending KEY alongside the line number, so a
  // typo deep in a many-cell spec points straight at its directive.
  const auto parse_int = [&](const std::string& key, const std::string& v,
                             cli::Range<int> range = {}) {
    const std::optional<int> out = cli::parse_int(v);
    if (!out) fail("bad integer for key '" + key + "': " + v);
    if (!range.contains(*out)) fail(key + " must be " + cli::describe(range) + ", got " + v);
    return *out;
  };
  const auto parse_double = [&](const std::string& key, const std::string& v,
                                cli::Range<double> range = {}) {
    const std::optional<double> out = cli::parse_double(v);
    if (!out) fail("bad number for key '" + key + "': " + v);
    if (!range.contains(*out)) fail(key + " must be " + cli::describe(range) + ", got " + v);
    return *out;
  };
  const auto parse_u64 = [&](const std::string& key, const std::string& v) {
    const std::optional<std::uint64_t> out = cli::parse_u64(v);
    if (!out) fail("bad seed for key '" + key + "': " + v);
    return *out;
  };
  constexpr cli::Range<int> kPositive{.min = 1};
  constexpr cli::Range<double> kUnit{0.0, 1.0};
  // The ranges apply_gaussian_fluctuation / apply_hot_spot enforce, checked
  // here so a bad value fails before the cell's optimization runs.
  const auto parse_open_unit = [&](const std::string& key, const std::string& v) {
    const double out = parse_double(key, v);
    if (out <= 0.0 || out > 1.0) fail(key + " must be in (0, 1], got " + v);
    return out;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line == "[cell]") {
      campaign.cells.emplace_back();
      cell = &campaign.cells.back();
      cell->spec.seed = campaign.seed;  // inherit unless the cell overrides
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail("expected key = value or [cell]");
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty() || value.empty()) fail("expected key = value");

    // Shared by `scenario_set` and `harden_set`: the same catalog kinds name
    // WHAT is reported on and WHAT is hardened against.
    const auto parse_catalog_kind = [&](const std::string& k, const std::string& v) {
      const std::optional<ScenarioSpec::Kind> kind = parse_scenario_kind(v);
      if (!kind) fail("unknown value for key '" + k + "': " + v);
      return *kind;
    };

    if (cell == nullptr) {
      if (key == "name") campaign.name = value;
      else if (key == "seed") campaign.seed = parse_u64(key, value);
      else if (key == "effort") {
        const std::optional<Effort> effort = parse_effort(value);
        if (!effort) fail("unknown value for key 'effort': " + value);
        campaign.effort = *effort;
      } else {
        fail("unknown campaign key: " + key);
      }
      continue;
    }

    if (key == "id") cell->id = value;
    else if (key == "topology") {
      if (value == "rand") cell->spec.kind = TopologyKind::kRand;
      else if (value == "near") cell->spec.kind = TopologyKind::kNear;
      else if (value == "pl") cell->spec.kind = TopologyKind::kPl;
      else if (value == "isp") cell->spec.kind = TopologyKind::kIsp;
      else if (value.rfind("isp:", 0) == 0) {
        // Scale axis: `isp:` selects the seeded Rocketfuel-style generator
        // (node count from `nodes`, seed from the cell seed), tuned by
        // comma-separated k=v args — pops, cores, backbone_degree,
        // avg_degree — or `isp:file=<path>` to load a dtr-graph file.
        cell->spec.kind = TopologyKind::kIsp;
        cell->spec.isp_source = IspSource::kGenerated;
        std::string rest = value.substr(4);
        while (!rest.empty()) {
          const auto comma = rest.find(',');
          const std::string item = trim(std::string_view(rest).substr(0, comma));
          rest = comma == std::string::npos ? std::string() : rest.substr(comma + 1);
          if (item.empty()) continue;
          const auto ieq = item.find('=');
          if (ieq == std::string::npos)
            fail("bad isp topology arg (expected k=v): " + item);
          const std::string ik = trim(std::string_view(item).substr(0, ieq));
          const std::string iv = trim(std::string_view(item).substr(ieq + 1));
          if (ik == "file") {
            cell->spec.isp_source = IspSource::kFile;
            cell->spec.isp_file = iv;
          } else if (ik == "pops") cell->spec.isp_pops = parse_int("topology:" + ik, iv);
          else if (ik == "cores")
            cell->spec.isp_cores_per_pop = parse_int("topology:" + ik, iv);
          else if (ik == "backbone_degree")
            cell->spec.isp_backbone_degree = parse_double("topology:" + ik, iv);
          else if (ik == "avg_degree")
            cell->spec.isp_avg_degree = parse_double("topology:" + ik, iv);
          else fail("unknown isp topology arg: " + ik);
        }
      }
      else fail("unknown value for key 'topology': " + value);
    } else if (key == "nodes") cell->spec.nodes = parse_int(key, value);
    else if (key == "degree") cell->spec.degree = parse_double(key, value);
    else if (key == "attachments") cell->spec.pl_attachments = parse_int(key, value);
    else if (key == "theta") cell->spec.theta_ms = parse_double(key, value);
    else if (key == "avg_util")
      cell->spec.util = {UtilizationTarget::Kind::kAverage, parse_double(key, value)};
    else if (key == "max_util")
      cell->spec.util = {UtilizationTarget::Kind::kMax, parse_double(key, value)};
    else if (key == "delay_fraction") cell->spec.delay_fraction = parse_double(key, value);
    else if (key == "seed") cell->spec.seed = parse_u64(key, value);
    // Nothing downstream consumes repeats <= 0; it would just yield a cell
    // that "succeeds" with zero reps. A huge count would run until killed.
    else if (key == "repeats") cell->repeats = parse_int(key, value, {1, 1000});
    else if (key == "seed_stride") cell->seed_stride = parse_u64(key, value);
    else if (key == "critical_fraction")
      cell->critical_fraction = parse_double(key, value);
    else if (key == "phase1b_samples")
      cell->phase1b_samples = parse_int(key, value, kPositive);
    else if (key == "phase_iterations")
      cell->phase_iterations = parse_int(key, value, kPositive);
    else if (key == "floor") cell->unavoidable_floor = parse_int(key, value) != 0;
    else if (key == "fluctuation") {
      if (value == "none") cell->fluctuation.model = FluctuationSpec::Model::kNone;
      else if (value == "gaussian")
        cell->fluctuation.model = FluctuationSpec::Model::kGaussian;
      else if (value == "hotspot")
        cell->fluctuation.model = FluctuationSpec::Model::kHotSpot;
      else fail("unknown value for key 'fluctuation': " + value);
    } else if (key == "trials")
      cell->fluctuation.trials = parse_int(key, value, kPositive);
    else if (key == "epsilon")
      cell->fluctuation.gaussian.epsilon = parse_double(key, value, {.min = 0.0});
    else if (key == "top_fraction")
      cell->fluctuation.top_fraction = parse_double(key, value, kUnit);
    else if (key == "direction") {
      if (value == "upload")
        cell->fluctuation.hot_spot.direction = HotSpotParams::Direction::kUpload;
      else if (value == "download")
        cell->fluctuation.hot_spot.direction = HotSpotParams::Direction::kDownload;
      else fail("unknown value for key 'direction': " + value);
    } else if (key == "server_fraction")
      cell->fluctuation.hot_spot.server_fraction = parse_open_unit(key, value);
    else if (key == "client_fraction")
      cell->fluctuation.hot_spot.client_fraction = parse_open_unit(key, value);
    else if (key == "scale_min") {
      cell->fluctuation.hot_spot.scale_min = parse_double(key, value);
      if (cell->fluctuation.hot_spot.scale_min <= 1.0)
        fail("scale_min must be > 1, got " + value);
    } else if (key == "scale_max")
      cell->fluctuation.hot_spot.scale_max = parse_double(key, value);
    else if (key == "scenario_set") cell->scenario.kind = parse_catalog_kind(key, value);
    else if (key == "k_link") cell->scenario.k = parse_int(key, value, kPositive);
    else if (key == "scenario_budget")
      cell->scenario.budget = static_cast<std::size_t>(parse_int(key, value, kPositive));
    else if (key == "srlg_file") cell->scenario.srlg_file = value;
    else if (key == "geo_grid") cell->scenario.geo_grid = parse_int(key, value, kPositive);
    else if (key == "percentile") cell->scenario.percentile = parse_double(key, value, kUnit);
    else if (key == "rate_weights")
      cell->scenario.rate_weights = parse_int(key, value) != 0;
    else if (key == "objective") {
      const std::optional<AggregationMode> mode = parse_aggregation_mode(value);
      if (!mode)
        fail("unknown value for key 'objective' "
             "(expected | percentile | downtime): " + value);
      cell->harden.enabled = true;
      cell->harden.mode = *mode;
    } else if (key == "harden_set")
      cell->harden.catalog.kind = parse_catalog_kind(key, value);
    else if (key == "harden_k") cell->harden.catalog.k = parse_int(key, value, kPositive);
    else if (key == "harden_budget")
      cell->harden.catalog.budget = static_cast<std::size_t>(parse_int(key, value, kPositive));
    else if (key == "harden_srlg_file") cell->harden.catalog.srlg_file = value;
    else if (key == "harden_geo_grid")
      cell->harden.catalog.geo_grid = parse_int(key, value, kPositive);
    else if (key == "harden_rate_weights")
      cell->harden.catalog.rate_weights = parse_int(key, value) != 0;
    else if (key == "harden_percentile")
      cell->harden.catalog.percentile = parse_double(key, value, kUnit);
    else if (key == "harden_period_min") {
      cell->harden.period_minutes = parse_double(key, value);
      if (cell->harden.period_minutes <= 0.0)
        fail("harden_period_min must be > 0, got " + value);
    } else if (key == "telemetry") cell->telemetry = parse_int(key, value) != 0;
    else if (key == "events") cell->events = parse_int(key, value) != 0;
    else fail("unknown cell key: " + key);
  }

  // Default ids so --filter / result lookup always has a handle. "/" (not
  // "#") keeps the generated id representable in a spec file, where "#"
  // starts a comment.
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    if (campaign.cells[i].id.empty())
      campaign.cells[i].id = campaign.cells[i].spec.label() + "/" + std::to_string(i);
  }
  // Cross-key checks, once every key of a cell is known. An id names one
  // cell for --filter and the artifact's keys.
  std::set<std::string_view> ids;
  for (const CampaignCell& c : campaign.cells) {
    const auto cell_fail = [&](const std::string& message) {
      throw std::runtime_error("campaign spec cell '" + c.id + "': " + message);
    };
    if (!ids.insert(c.id).second) cell_fail("duplicate id");
    const FluctuationSpec& f = c.fluctuation;
    if (f.model != FluctuationSpec::Model::kNone && f.trials == 0)
      cell_fail("trials required when fluctuation is set");
    if (f.hot_spot.scale_max < f.hot_spot.scale_min)
      cell_fail("scale_max must be >= scale_min");
  }
  return campaign;
}

}  // namespace dtr::experiments
