#include "experiments/results.h"

#include <ostream>
#include <sstream>

#include "util/json.h"
#include "util/stats.h"

namespace dtr::experiments {

double MetricRow::get(std::string_view name, double fallback) const {
  for (const auto& [k, v] : values)
    if (k == name) return v;
  return fallback;
}

const std::vector<double>* MetricRow::get_series(std::string_view name) const {
  for (const auto& [k, v] : series)
    if (k == name) return &v;
  return nullptr;
}

const CellResult* CampaignResult::find(std::string_view id) const {
  for (const CellResult& cell : cells)
    if (cell.id == id) return &cell;
  return nullptr;
}

Aggregate aggregate_metric(const CellResult& cell, std::string_view name) {
  RunningStats stats;
  for (const MetricRow& rep : cell.reps)
    for (const auto& [k, v] : rep.values)
      if (k == name) stats.add(v);
  return {stats.count(), stats.mean(), stats.stddev()};
}

std::vector<std::pair<std::string, Aggregate>> aggregate_metrics(const CellResult& cell) {
  // Single pass: accumulate per name in first-appearance order.
  std::vector<std::pair<std::string, RunningStats>> stats;
  for (const MetricRow& rep : cell.reps) {
    for (const auto& [name, value] : rep.values) {
      RunningStats* entry = nullptr;
      for (auto& [existing, s] : stats) {
        if (existing == name) {
          entry = &s;
          break;
        }
      }
      if (entry == nullptr) entry = &stats.emplace_back(name, RunningStats{}).second;
      entry->add(value);
    }
  }
  std::vector<std::pair<std::string, Aggregate>> out;
  out.reserve(stats.size());
  for (const auto& [name, s] : stats)
    out.emplace_back(name, Aggregate{s.count(), s.mean(), s.stddev()});
  return out;
}

void write_campaign_json(std::ostream& os, const CampaignResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kCampaignSchema);
  w.key("name").value(result.name);
  w.key("effort").value(result.effort);
  w.key("seed").value(static_cast<unsigned long long>(result.seed));
  w.key("cells").begin_array();
  for (const CellResult& cell : result.cells) {
    w.begin_object();
    w.key("id").value(cell.id);
    w.key("label").value(cell.label);
    if (cell.error.empty()) w.key("error").null();
    else w.key("error").value(cell.error);
    w.key("reps").begin_array();
    for (const MetricRow& rep : cell.reps) {
      w.begin_object();
      w.key("seed").value(static_cast<unsigned long long>(rep.seed));
      w.key("metrics").begin_object();
      for (const auto& [name, value] : rep.values) w.key(name).value(value);
      w.end_object();
      if (!rep.series.empty()) {
        w.key("series").begin_object();
        for (const auto& [name, xs] : rep.series) {
          w.key(name).begin_array();
          for (const double x : xs) w.value(x);
          w.end_array();
        }
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.key("aggregates").begin_object();
    for (const auto& [name, agg] : aggregate_metrics(cell)) {
      w.key(name).begin_object();
      w.key("count").value(agg.count);
      w.key("mean").value(agg.mean);
      w.key("stddev").value(agg.stddev);
      w.end_object();
    }
    w.end_object();
    if (!cell.telemetry.empty()) {
      // Only cells with a `telemetry=1` directive carry the block, so every
      // pre-existing artifact keeps its exact bytes.
      w.key("telemetry").begin_object();
      for (const auto& [name, value] : cell.telemetry)
        w.key(name).value(static_cast<unsigned long long>(value));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string campaign_json(const CampaignResult& result) {
  std::ostringstream ss;
  write_campaign_json(ss, result);
  return ss.str();
}

}  // namespace dtr::experiments
