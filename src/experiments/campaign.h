#pragma once

/// Campaign engine: shards whole experiment cells — a workload spec plus
/// optimizer/eval config, repetition seeds, and optional traffic-uncertainty
/// fluctuations — across the worker pool, producing the typed results of
/// results.h. This is the scaling layer above the intra-evaluation
/// parallelism of util/thread_pool: exactly one level runs parallel (cells
/// OR the inner engine, never both), cells land in deterministic campaign
/// order, and a throwing cell is captured in its CellResult instead of
/// aborting the run. Results are bit-identical for any execution shape.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/results.h"
#include "experiments/workloads.h"
#include "routing/evaluator.h"
#include "scenarios/hardening.h"
#include "scenarios/scenario_set.h"
#include "traffic/uncertainty.h"
#include "util/cli.h"

namespace dtr {
class ThreadPool;
}  // namespace dtr

namespace dtr::telemetry {
class EventBus;
class Registry;
}  // namespace dtr::telemetry

namespace dtr::experiments {

/// Traffic-uncertainty stress attached to a cell (the Sec. V-F models).
struct FluctuationSpec {
  enum class Model : std::uint8_t { kNone, kGaussian, kHotSpot };
  Model model = Model::kNone;
  GaussianFluctuation gaussian{};
  HotSpotParams hot_spot{};
  int trials = 0;                 ///< perturbed matrices to draw (0 disables)
  double top_fraction = 0.10;     ///< stressed share of worst failure links
  std::uint64_t seed_offset = 7;  ///< fluctuation stream = rep seed + offset
};

std::string to_string(FluctuationSpec::Model m);

/// Scenario-catalog attachment (spec directives `scenario_set`, `k_link`,
/// `scenario_budget`, `srlg_file`, `geo_grid`, `percentile`, `rate_weights`):
/// when kind != kNone, the cell builds a ScenarioSet against the workload
/// graph and additionally profiles both routings over it, emitting the
/// weighted `scn_*` metrics (expected / percentile / worst).
struct ScenarioSpec {
  enum class Kind : std::uint8_t {
    kNone,      ///< no scenario catalog (the default; cell output unchanged)
    kAllLinks,  ///< every single-link failure
    kAllNodes,  ///< every single-node failure
    kKLink,     ///< k-link combinations, budget-capped (enumerate_k_link_failures)
    kSrlgFile,  ///< explicit SRLG catalog from a `.srlg` sidecar file
    kGeoSrlg,   ///< synthetic conduit catalog (synthesize_geo_srlgs)
  };
  Kind kind = Kind::kNone;
  int k = 2;                  ///< kKLink: simultaneous link failures
  std::size_t budget = 100;   ///< kKLink: catalog size cap
  std::string srlg_file;      ///< kSrlgFile: sidecar path (relative to the CWD)
  int geo_grid = 4;           ///< kGeoSrlg: grid resolution
  double percentile = 0.95;   ///< percentile for the scn_p_* metrics
  bool rate_weights = false;  ///< reweight by per-element failure rates
  /// kKLink sampling stream = rep seed + offset (decorrelated from the
  /// optimizer/fluctuation streams, like FluctuationSpec::seed_offset).
  std::uint64_t seed_offset = 17;
};

std::string to_string(ScenarioSpec::Kind kind);
/// Inverse of to_string; nullopt on an unknown name.
std::optional<ScenarioSpec::Kind> parse_scenario_kind(std::string_view text);

/// Availability-aware hardening attachment (spec keys `objective`,
/// `harden_set`, `harden_k`, `harden_budget`, `harden_srlg_file`,
/// `harden_geo_grid`, `harden_rate_weights`, `harden_percentile`,
/// `harden_period_min`): when enabled, the optimizer runs against a
/// HardeningObjective built from this catalog — scenario-catalog criticality
/// plus the chosen aggregation — instead of every single-link failure at unit
/// weight, and the cell emits the `opt_scn_*` / `scn_exp_downtime_*` metrics.
/// `objective=` alone defaults the catalog to all single-link failures, so
/// "objective=downtime" with no harden_set is the single-link-hardened
/// baseline the SRLG-vs-single-link comparisons measure against.
struct HardenSpec {
  bool enabled = false;  ///< set by the `objective=` key (the opt-in)
  AggregationMode mode = AggregationMode::kExpectedCost;
  /// WHAT can fail during optimization — reuses the catalog directives of
  /// ScenarioSpec under harden_-prefixed keys. kind == kNone (the default)
  /// means all single-link failures.
  ScenarioSpec catalog;
  double period_minutes = 43200.0;  ///< downtime scale (default: 30-day month)
  /// Hardening catalog sampling stream = rep seed + offset (decorrelated
  /// from the optimizer / fluctuation / reporting-scenario streams).
  std::uint64_t seed_offset = 23;
};

/// The HardeningObjective a cell's HardenSpec describes against `g`
/// (deterministic in `seed`; throws when the catalog comes out empty).
HardeningObjective build_hardening_objective(const HardenSpec& spec, const Graph& g,
                                             std::uint64_t seed);

/// Builds the catalog a spec describes against `g` (deterministic in
/// `seed`). kSrlgFile reads spec.srlg_file here, so a missing sidecar
/// surfaces as the cell error of the rep that needed it.
ScenarioSet build_scenario_set(const ScenarioSpec& spec, const Graph& g,
                               std::uint64_t seed);

/// Execution context handed to cell bodies: the inner pool is non-null only
/// when cells run sequentially; `inner_threads` is the matching
/// OptimizerConfig::num_threads value (1 when cells run in parallel).
/// `eval_config` carries the campaign-wide EvaluatorConfig: `incremental`
/// is a pure HOW-knob, so the artifact bytes are identical for either
/// setting (the golden gate runs the `--no-incremental` shape to prove it);
/// the cell's optimizer evaluator swaps its `telemetry` for the cell
/// registry below.
struct CellContext {
  ThreadPool* inner_pool = nullptr;
  int inner_threads = 1;
  EvaluatorConfig eval_config{};
  /// Per-cell telemetry registry (borrowed; null = telemetry off for the
  /// cell). run_campaign hands every cell its OWN registry and merges them
  /// in campaign order afterwards, so the merged counters are byte-identical
  /// for any execution shape.
  telemetry::Registry* telemetry = nullptr;
  /// Per-cell streaming event bus (borrowed; null = events off for the
  /// cell). Same pattern as `telemetry`: each cell publishes into its own
  /// bus and run_campaign drains them into the sink in campaign order after
  /// the barrier, keeping the sink's deterministic-plane lines
  /// byte-identical for any execution shape.
  telemetry::EventBus* events = nullptr;
};

struct CampaignCell {
  std::string id;     ///< unique within the campaign; the --filter target
  WorkloadSpec spec;  ///< base spec; rep r runs at spec.seed + r * seed_stride
  int repeats = 1;
  std::uint64_t seed_stride = 101;
  double critical_fraction = 0.0;  ///< > 0 overrides the optimizer default
  /// > 0 caps the Phase-1b criticality sample budget (optimizer default is
  /// 20*tau*|E|, which grows with link count — ISP-scale cells set an
  /// explicit cap so cell cost tracks the topology, not the budget formula).
  long phase1b_samples = 0;
  /// > 0 caps each phase's local-search iterations (the stall-based default
  /// runs to ~20*interval*diversifications probes, and every Phase-2 probe
  /// sweeps the critical set — unbounded, an ISP-scale cell takes tens of
  /// minutes; capped, its cost is a fixed number of probes).
  long phase_iterations = 0;
  bool unavoidable_floor = false;  ///< also compute the violation lower bound
  FluctuationSpec fluctuation;
  ScenarioSpec scenario;
  HardenSpec harden;
  /// Evaluate against this graph instead of the spec-built one (the NearTopo
  /// resize experiment); traffic/params still come from the spec workload.
  std::shared_ptr<const Graph> graph_override;
  /// Spec key `telemetry=1`: embed this cell's deterministic counter block
  /// in the artifact (CellResult::telemetry). Opt-in so existing artifacts
  /// keep their bytes.
  bool telemetry = false;
  /// Spec key `events=1`: stream this cell's progress events (cell
  /// heartbeats, optimizer iteration records, rep progress) to the
  /// campaign's event sink. No effect without CampaignOptions::events.
  bool events = false;
  /// Custom per-rep body (tests/extensions); empty = standard_cell_rep.
  std::function<MetricRow(const CampaignCell&, Effort, std::uint64_t,
                          const CellContext&)>
      body;
};

struct Campaign {
  std::string name;
  Effort effort = Effort::kQuick;
  std::uint64_t seed = 1;  ///< recorded in the artifact (cells carry their own)
  std::vector<CampaignCell> cells;
};

struct CampaignOptions {
  /// Cell-level shards; 0 = hardware concurrency. The nested-parallelism
  /// guard admits exactly one parallel level: when the resolved worker count
  /// exceeds 1, cells run with inner_threads forced to 1; inner parallelism
  /// only engages when cells execute sequentially.
  int workers = 1;
  /// Per-cell engine parallelism (optimizer + batched profiles); 0 = hw.
  int inner_threads = 1;
  /// Evaluator execution knobs applied to every cell (results are
  /// bit-identical for any setting; only wall-clock changes).
  EvaluatorConfig eval_config{};
  /// Optional campaign-wide telemetry sink (borrowed; may be null). Each
  /// cell collects into its own registry; run_campaign merges them into the
  /// sink in campaign order after the last cell finishes, so the sink's
  /// deterministic counters are byte-identical for any workers /
  /// inner_threads shape. Cell spans land here too (process plane).
  telemetry::Registry* telemetry = nullptr;
  /// Optional campaign-wide event sink (borrowed; may be null). Cells that
  /// opted in with `events=1` publish into per-cell buses which run_campaign
  /// drains into this sink in campaign order after the barrier — the
  /// deterministic plane is byte-identical for any workers / inner_threads
  /// shape. Appended last so brace-initialized call sites keep compiling.
  telemetry::EventBus* events = nullptr;
};

/// Runs every cell: sharded across the pool, deterministic result order,
/// per-cell failure capture (see CellResult::error).
CampaignResult run_campaign(const Campaign& campaign,
                            const CampaignOptions& options = {});

/// The standard cell body: workload -> two-phase optimization -> full
/// link-failure profiles (robust vs regular) -> scalar metrics
/// (beta/top-10%/Phi degradation), plus the optional unavoidable floor and
/// the fluctuated-TM stress block when the cell carries a FluctuationSpec.
MetricRow standard_cell_rep(const CampaignCell& cell, Effort effort,
                            std::uint64_t rep_seed, const CellContext& ctx);

/// Per-top-failure statistics over the fluctuation trials.
struct StressSeries {
  std::vector<double> mean_violations;
  std::vector<double> std_violations;
  std::vector<double> mean_phi;  ///< normalized by phi_uncap
  std::vector<double> std_phi;
};

/// Batched fluctuated-TM evaluation (the ROADMAP "batched TM uncertainty
/// sweep"): pre-draws `fluct.trials` perturbed matrices from one sequential
/// RNG stream (so the trial set is independent of the execution shape), then
/// shards trials across `pool` — one Evaluator per trial, built with
/// `eval_config` and reused for every routing and failure in that trial, on
/// top of the per-worker routing scratch. Returns one series per routing over
/// the `top` failure links, reduced in trial order (bit-identical for any
/// worker count and either `eval_config.incremental`).
std::vector<StressSeries> evaluate_fluctuations(const Workload& base,
                                                std::span<const WeightSetting> routings,
                                                std::span<const LinkId> top,
                                                const FluctuationSpec& fluct,
                                                std::uint64_t seed,
                                                ThreadPool* pool = nullptr,
                                                const EvaluatorConfig& eval_config = {});

/// The worst `fraction` of failures ranked by the damage done to the
/// profiled routing (violations, then Phi, then index — a total order, so
/// the stress set is deterministic). At least two failures when non-empty.
/// Throws std::invalid_argument for a `fraction` outside [0, 1].
std::vector<LinkId> worst_failure_links(const FailureProfile& profile, double fraction);

/// Parses the line-based campaign spec format (see README "Campaign
/// subsystem"): top-level `key = value` lines (name/effort/seed), then one
/// `[cell]` section per cell. Throws std::runtime_error naming the offending
/// line on malformed input, or the offending cell when keys conflict (a
/// fluctuation model without `trials`, `scale_max` below `scale_min`).
Campaign parse_campaign_spec(std::istream& in);

/// Keeps only cells whose id contains `substr` (empty keeps everything).
void filter_cells(Campaign& campaign, std::string_view substr);

/// What the campaign-running flags set: shared by `dtr_tool campaign` and
/// every sweep-style bench binary, so their validation can't drift.
struct CampaignRunArgs {
  std::string json_path;  ///< --json: write the artifact here
  std::string filter;     ///< --filter: keep cells whose id contains it
  bool list = false;      ///< --list: print the selected cell ids and stop
  /// --workers (default 0 = hardware concurrency), --inner-threads,
  /// --no-incremental (the full-recompute reference oracle).
  CampaignOptions options{.workers = 0};
};

/// --json, --filter, --list, --workers, --inner-threads, --no-incremental.
cli::Flags campaign_run_flags(CampaignRunArgs& args);

/// Applies --filter, then --list: prints the selected ids to `os` and
/// returns false when the caller should stop there.
bool select_cells(const CampaignRunArgs& args, Campaign& campaign, std::ostream& os);

}  // namespace dtr::experiments
