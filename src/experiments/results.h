#pragma once

/// Typed campaign results and the schema-versioned JSON artifact writer.
/// Every sweep-style bench emits these so performance/quality trajectories
/// can be tracked machine-readably across PRs (BENCH_*.json artifacts).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtr::experiments {

/// One repetition's output: insertion-ordered (name, value) scalars plus
/// optional named per-index series (e.g. fig6's per-top-failure curves).
/// Plain ordered pairs — not a map — so the JSON key order is stable.
struct MetricRow {
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::vector<double>>> series;

  double get(std::string_view name, double fallback = 0.0) const;
  /// nullptr when the series is absent.
  const std::vector<double>* get_series(std::string_view name) const;
};

/// One campaign cell's outcome. `error` is non-empty if the cell threw; the
/// reps collected before the failure are preserved and the campaign runs on.
struct CellResult {
  std::string id;
  std::string label;
  std::string error;
  std::vector<MetricRow> reps;
  /// Deterministic telemetry counters of this cell (name-sorted), filled
  /// only when the cell opted in via the `telemetry=1` spec key. Emitted as
  /// the "telemetry" object — byte-identical across execution shapes.
  std::vector<std::pair<std::string, std::uint64_t>> telemetry;
};

/// Whole-campaign outcome. Cells appear in campaign order regardless of the
/// execution schedule (the sharding is invisible in the artifact).
struct CampaignResult {
  std::string name;
  std::string effort;
  std::uint64_t seed = 0;
  std::vector<CellResult> cells;
  int cell_workers = 1;   ///< execution shape; excluded from deterministic JSON
  int inner_threads = 1;  ///< execution shape; excluded from deterministic JSON

  /// nullptr when no cell has that id.
  const CellResult* find(std::string_view id) const;
};

/// Mean/stddev of one scalar metric across a cell's repetitions.
struct Aggregate {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

Aggregate aggregate_metric(const CellResult& cell, std::string_view name);

/// Every scalar metric aggregated across reps, names in first-appearance
/// order.
std::vector<std::pair<std::string, Aggregate>> aggregate_metrics(const CellResult& cell);

/// Schema identifier embedded in every artifact; bump when the layout
/// changes incompatibly.
inline constexpr std::string_view kCampaignSchema = "dtr.campaign.v1";

/// Wall-clock and execution-shape fields never enter the artifact, so it is
/// byte-identical across worker counts and across cell-parallel vs
/// inner-parallel execution.
void write_campaign_json(std::ostream& os, const CampaignResult& result);

std::string campaign_json(const CampaignResult& result);

}  // namespace dtr::experiments
