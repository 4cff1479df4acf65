#include "routing/evaluator.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cost/fortz.h"
#include "graph/spf.h"
#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

namespace dtr {

void EvalStats::merge(const EvalStats& o) {
  scenarios_patched += o.scenarios_patched;
  scenarios_full += o.scenarios_full;
  scenarios_served_none += o.scenarios_served_none;
  patch.merge(o.patch);
}

struct Evaluator::IncrementalBase {
  ClassRouting delay;
  ClassRouting tput;

  /// Replay records, lazily materialized (ensure_patch_records) on the first
  /// call that patches a failure from this base: Phase-1 probes build bases
  /// that are usually evicted unused, so they skip the recording cost.
  /// `records_once` guards the upgrade — cached bases are shared across
  /// speculative-evaluation threads, and every reader of the records ran the
  /// call_once itself.
  mutable std::once_flag records_once;
  mutable RoutingBaseRecord delay_record;
  mutable RoutingBaseRecord tput_record;

  /// No-failure products (see finish_base): the total loads and, in
  /// none_result, everything but the Lambda side.
  std::vector<double> total_load;
  EvalResult none_result;  ///< costs-only fields; lambda/sla_violations unset

  /// The Lambda side of the no-failure evaluation (ensure_lambda): arc
  /// delays, the delay DP and the SLA aggregation. Lazy like the records —
  /// pins, failure-only bases and Phi-rejected screens never read it.
  /// `sd_delay` holds the POST-aggregation values (disconnected pairs capped
  /// at the disconnect charge), exactly what the full path's aggregation
  /// leaves in place.
  mutable std::once_flag lambda_once;
  mutable std::vector<double> sd_delay;
  mutable double lambda = 0.0;
  mutable int sla_violations = 0;
};

namespace {

/// Number of links on which two same-sized weight settings differ in EITHER
/// class — the donor-distance metric of the weight-delta patch path.
std::size_t differing_links(const WeightSetting& a, const WeightSetting& b) {
  std::size_t diff = 0;
  for (LinkId l = 0; l < a.num_links(); ++l) {
    for (TrafficClass c : kBothClasses) {
      if (a.get(c, l) != b.get(c, l)) {
        ++diff;
        break;
      }
    }
  }
  return diff;
}

}  // namespace

/// Weights-keyed LRU cache of base records, with one pinned entry exempt
/// from eviction. A handful of entries scanned linearly under a mutex:
/// lookups happen once per evaluation (not per scenario), and the key
/// compare on vector<int> fails fast, so contention and scan cost are noise
/// next to a single Dijkstra.
class Evaluator::BaseCache {
 public:
  std::shared_ptr<const IncrementalBase> find(const WeightSetting& w) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : entries_) {
      if (e.key == w) {
        e.last_used = ++tick_;
        ++stats_.hits;
        return e.base;
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  void insert(const WeightSetting& w, std::shared_ptr<const IncrementalBase> base) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : entries_) {
      if (e.key == w) {
        // Another thread built the same base concurrently; both are pure
        // functions of w, so either copy serves identically.
        e.base = std::move(base);
        e.last_used = ++tick_;
        return;
      }
    }
    ++stats_.insertions;
    Entry entry{w, std::move(base), ++tick_, pinned_.has_value() && *pinned_ == w};
    if (entries_.size() >= kBaseCacheCapacity) {
      // Least recently used among the unpinned entries (capacity > 1, and at
      // most one entry is pinned, so there always is one).
      auto victim = std::min_element(
          entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
            return std::pair(a.pinned, a.last_used) < std::pair(b.pinned, b.last_used);
          });
      ++stats_.evictions;
      *victim = std::move(entry);
    } else {
      entries_.push_back(std::move(entry));
    }
  }

  /// Closest cached base within kWeightDeltaMaxLinks differing links of `w`
  /// (ties broken toward the most recently used entry), or nullopt. Serving
  /// as a donor counts as a use: the chosen entry's LRU stamp is refreshed,
  /// so an incumbent whose single-link probes keep patching from it is never
  /// evicted by those probes. Returns a COPY of the donor's key alongside the
  /// record — the entry may be evicted the moment the lock drops. Never
  /// counts a hit or miss: donor probes always follow a failed find(), which
  /// already counted the miss.
  std::optional<std::pair<WeightSetting, std::shared_ptr<const IncrementalBase>>>
  find_donor(const WeightSetting& w) {
    const std::lock_guard<std::mutex> lock(mu_);
    Entry* best = nullptr;
    std::size_t best_diff = kWeightDeltaMaxLinks + 1;
    for (Entry& e : entries_) {
      if (e.key.num_links() != w.num_links()) continue;
      const std::size_t diff = differing_links(e.key, w);
      if (diff == 0 || diff > kWeightDeltaMaxLinks) continue;
      if (diff < best_diff || (diff == best_diff && e.last_used > best->last_used)) {
        best = &e;
        best_diff = diff;
      }
    }
    if (best == nullptr) return std::nullopt;
    best->last_used = ++tick_;
    return std::make_pair(best->key, best->base);
  }

  /// Makes `w` the one pinned key: its entry (present now or inserted later)
  /// is never an LRU victim until another key is pinned or the cache is
  /// cleared. Returns whether `w` is cached. Counts no hit or miss — a pin
  /// is cache policy, not a lookup.
  bool pin(const WeightSetting& w) {
    const std::lock_guard<std::mutex> lock(mu_);
    pinned_ = w;
    bool present = false;
    for (Entry& e : entries_) {
      e.pinned = e.key == w;
      present = present || e.pinned;
    }
    return present;
  }

  void note_weight_patch(std::uint64_t arcs) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.weight_patched;
    stats_.arcs_updated += arcs;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    pinned_.reset();
  }

  EvaluatorCacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    WeightSetting key;
    std::shared_ptr<const IncrementalBase> base;
    std::uint64_t last_used = 0;
    bool pinned = false;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::optional<WeightSetting> pinned_;
  std::uint64_t tick_ = 0;
  EvaluatorCacheStats stats_;
};

namespace {

/// Arc-removal scenarios patch cleanly from the no-failure base; scenarios
/// that fail nodes (kNode, compound with nodes) also drop those nodes'
/// demands, which the replay records don't capture — those take the full
/// path.
bool incremental_eligible(const FailureScenario& s) {
  return skipped_nodes(s).empty();
}

/// Scenarios the base actually accelerates beyond a plain no-failure replay:
/// arc removals — single links and links-only compound scenarios — that
/// patch instead of recompute.
bool incremental_patchable(const FailureScenario& s) {
  switch (s.kind) {
    case FailureScenario::Kind::kLink:
      return true;
    case FailureScenario::Kind::kCompound:
      return s.nodes.empty() && !s.links.empty();
    default:
      return false;
  }
}

/// Folds one batch call's merged deterministic stats into the registry. The
/// caller merged per-slot stats in index order on its own thread, so the
/// values (and therefore the registered names) are shape-independent.
void publish_eval_stats(telemetry::Registry& reg, const EvalStats& agg) {
  reg.counter("eval.patched").add(agg.scenarios_patched);
  reg.counter("eval.full").add(agg.scenarios_full);
  reg.counter("eval.served_none").add(agg.scenarios_served_none);
  const PatchStats& p = agg.patch;
  reg.counter("spf.dests_delta").add(p.dests_delta);
  reg.counter("spf.dests_full_fallback").add(p.dests_full_fallback);
  reg.counter("spf.affected_nodes").add(p.affected_nodes);
  reg.counter("spf.boundary_seeds").add(p.boundary_seeds);
  reg.counter("load.dests_replayed").add(p.dests_replayed);
  reg.counter("load.dests_resweep").add(p.dests_resweep);
  reg.counter("load.nodes_retested").add(p.nodes_retested);
  reg.counter("delay.cols_recomputed").add(p.delay_cols_recomputed);
  reg.histogram("spf.affected_region", kAffectedBucketBounds)
      .merge_buckets(p.affected_buckets, p.dests_delta, p.affected_nodes);
}

}  // namespace

Evaluator::Evaluator(const Graph& g, const ClassedTraffic& traffic, EvalParams params,
                     EvaluatorConfig config)
    : graph_(g), traffic_(traffic), params_(params), config_(config) {
  if (traffic.delay.num_nodes() != g.num_nodes() ||
      traffic.throughput.num_nodes() != g.num_nodes())
    throw std::invalid_argument("Evaluator: traffic/graph size mismatch");

  // Uncapacitated min-hop reference (for Phi normalization in figures).
  const TrafficMatrix total = traffic_.combined();
  std::vector<int> hops;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    hop_distances_from(g, s, {}, hops);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const double v = total.at(s, t);
      if (v > 0.0 && hops[t] > 0) phi_uncap_ += v * hops[t];
    }
  }
  delay_pairs_ = traffic_.delay.num_positive_demands();

  if (config_.incremental) cache_ = std::make_unique<BaseCache>();
}

Evaluator::~Evaluator() = default;

EvaluatorCacheStats Evaluator::base_cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : EvaluatorCacheStats{};
}

std::size_t Evaluator::base_cache_size() const {
  return cache_ != nullptr ? cache_->size() : 0;
}

void Evaluator::invalidate_base_cache() const {
  if (cache_ != nullptr) cache_->clear();
}

void Evaluator::pin_incumbent(const WeightSetting& w) const {
  if (cache_ == nullptr) return;
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::pin_incumbent: weight setting size mismatch");
  // Pin first, so the base built below is pinned from its insertion on.
  if (cache_->pin(w)) return;
  Scratch& scratch = worker_scratch();
  w.arc_costs(graph_, TrafficClass::kDelay, scratch.cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, scratch.cost_tput);
  acquire_base(w, scratch.cost_delay, scratch.cost_tput, /*build=*/true, /*patch=*/false);
}

void Evaluator::flush_cache_stats_to_telemetry() const {
  telemetry::Registry* reg = config_.telemetry;
  if (reg == nullptr || cache_ == nullptr) return;
  const EvaluatorCacheStats s = cache_->stats();
  reg->counter("evaluator.base_cache.hits", telemetry::Plane::kProcess).add(s.hits);
  reg->counter("evaluator.base_cache.misses", telemetry::Plane::kProcess).add(s.misses);
  reg->counter("evaluator.base_cache.insertions", telemetry::Plane::kProcess)
      .add(s.insertions);
  reg->counter("evaluator.base_cache.evictions", telemetry::Plane::kProcess)
      .add(s.evictions);
  // Weight-delta donor patches: how many misses were served by patching a
  // near-neighbor base, and how many arc-cost changes those patches applied.
  // Donor availability depends on cache state (shape-dependent), so these
  // live on the process plane like every cache counter.
  reg->counter("eval.weight_patched", telemetry::Plane::kProcess).add(s.weight_patched);
  reg->counter("spf.arcs_updated", telemetry::Plane::kProcess).add(s.arcs_updated);
}

Evaluator::Scratch& Evaluator::worker_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

EvalResult Evaluator::evaluate(const WeightSetting& w, const FailureScenario& scenario,
                               EvalDetail detail) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::evaluate: weight setting size mismatch");

  Scratch& scratch = worker_scratch();
  w.arc_costs(graph_, TrafficClass::kDelay, scratch.cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, scratch.cost_tput);

  // A single evaluation is worth a base record: the optimizer's pattern is
  // evaluate(w) followed by sweeps / failure evaluations of the SAME
  // weights, so the record built here is the one those calls reuse (and a
  // failure evaluation that finds the record patches instead of
  // recomputing).
  std::shared_ptr<const IncrementalBase> base;
  if (incremental_eligible(scenario))
    base = acquire_base(w, scratch.cost_delay, scratch.cost_tput, /*build=*/true,
                        incremental_patchable(scenario));
  return evaluate_impl(scratch.cost_delay, scratch.cost_tput, scenario, detail, scratch,
                       base.get());
}

void Evaluator::build_base(std::span<const double> cost_delay,
                           std::span<const double> cost_tput,
                           IncrementalBase& base) const {
  base.delay.compute(graph_, cost_delay, traffic_.delay, {});
  base.tput.compute(graph_, cost_tput, traffic_.throughput, {});
  finish_base(base);
}

// The same per-arc products and Fortz sum the full path runs, so a served
// no-failure result is bit-identical to a computed one.
void Evaluator::finish_base(IncrementalBase& base) const {
  const GraphCsr& csr = graph_.csr();
  const std::size_t num_arcs = graph_.num_arcs();
  base.total_load.resize(num_arcs);
  for (ArcId a = 0; a < num_arcs; ++a)
    base.total_load[a] = base.delay.arc_load(a) + base.tput.arc_load(a);

  EvalResult& none = base.none_result;
  none = EvalResult{};
  none.disconnected_delay_pairs = base.delay.disconnected_demand_count();
  for (ArcId a = 0; a < num_arcs; ++a) {
    if (base.tput.arc_load(a) <= 0.0) continue;
    none.phi += fortz_cost(base.total_load[a], csr.capacity[a]);
  }
  none.phi += kFortzMaxSlope * base.tput.disconnected_demand_volume();
  none.disconnected_tput_pairs = base.tput.disconnected_demand_count();
}

void Evaluator::ensure_lambda(std::span<const double> cost_delay,
                              const IncrementalBase& base) const {
  std::call_once(base.lambda_once, [&] {
    // evaluate_impl's arc delays, delay DP and SLA aggregation, over the
    // base's no-failure routings.
    const GraphCsr& csr = graph_.csr();
    std::vector<double> arc_delay(graph_.num_arcs());
    for (ArcId a = 0; a < arc_delay.size(); ++a)
      arc_delay[a] = link_delay_ms(base.total_load[a], csr.capacity[a], csr.prop_delay_ms[a],
                                   params_.delay_model);
    base.delay.end_to_end_delays(graph_, cost_delay, {}, arc_delay, traffic_.delay,
                                 params_.sla_delay_mode, {}, base.sd_delay);
    const double disconnect_delay =
        params_.sla.theta_ms + params_.disconnect_delay_excess_ms;
    const SlaAggregate sla = accumulate_sla_cost(base.sd_delay, params_.sla, disconnect_delay);
    base.lambda = sla.lambda;
    base.sla_violations = sla.violations;
  });
}

void Evaluator::build_base_from_donor(const WeightSetting& w,
                                      const WeightSetting& donor_key,
                                      const IncrementalBase& donor,
                                      std::span<const double> cost_delay,
                                      std::span<const double> cost_tput,
                                      IncrementalBase& built) const {
  std::vector<double> donor_cost_delay, donor_cost_tput;
  donor_key.arc_costs(graph_, TrafficClass::kDelay, donor_cost_delay);
  donor_key.arc_costs(graph_, TrafficClass::kThroughput, donor_cost_tput);
  // The donor's replay records materialize on first use with the DONOR's own
  // costs — exactly what its first failure patch would have recorded.
  ensure_patch_records(donor_cost_delay, donor_cost_tput, donor);

  // Per-class arc-cost change lists: only the differing links' arcs, carrying
  // the donor's (old) cost. A class with identical weights gets an empty list
  // and replays the donor's routing wholesale.
  std::vector<ArcCostDelta> delay_changes, tput_changes;
  for (LinkId l = 0; l < graph_.num_links(); ++l) {
    if (w.get(TrafficClass::kDelay, l) != donor_key.get(TrafficClass::kDelay, l))
      for (ArcId a : graph_.link_arcs(l))
        delay_changes.push_back({a, donor_cost_delay[a]});
    if (w.get(TrafficClass::kThroughput, l) != donor_key.get(TrafficClass::kThroughput, l))
      for (ArcId a : graph_.link_arcs(l))
        tput_changes.push_back({a, donor_cost_tput[a]});
  }

  FailureScratch scratch;
  built.delay.compute_from_weight_delta(graph_, cost_delay, traffic_.delay, donor.delay,
                                        donor.delay_record, delay_changes,
                                        kIncrementalMaxAffectedFraction, scratch);
  built.tput.compute_from_weight_delta(graph_, cost_tput, traffic_.throughput,
                                       donor.tput, donor.tput_record, tput_changes,
                                       kIncrementalMaxAffectedFraction, scratch);
  finish_base(built);
  cache_->note_weight_patch(delay_changes.size() + tput_changes.size());
}

void Evaluator::ensure_patch_records(std::span<const double> cost_delay,
                                     std::span<const double> cost_tput,
                                     const IncrementalBase& base) const {
  std::call_once(base.records_once, [&] {
    // Replay the load sweeps over the base's EXISTING distance labels (no
    // Dijkstra) to capture the per-destination replay slices: same labels,
    // same float ops, so the recorded values are exactly what recording
    // during the build would have produced.
    base.delay.record_contributions(graph_, cost_delay, traffic_.delay, {}, {},
                                    base.delay_record);
    base.tput.record_contributions(graph_, cost_tput, traffic_.throughput, {}, {},
                                   base.tput_record);
  });
}

std::shared_ptr<const Evaluator::IncrementalBase> Evaluator::acquire_base(
    const WeightSetting& w, std::span<const double> cost_delay,
    std::span<const double> cost_tput, bool build, bool patch) const {
  if (cache_ == nullptr) return nullptr;
  std::shared_ptr<const IncrementalBase> base = cache_->find(w);
  if (base == nullptr) {
    if (!build) return base;
    // When a near neighbor is cached (a probe differing from the incumbent
    // on one link), the build itself is delta-patched from it.
    auto built = std::make_shared<IncrementalBase>();
    if (auto donor = cache_->find_donor(w))
      build_base_from_donor(w, donor->first, *donor->second, cost_delay, cost_tput,
                            *built);
    else
      build_base(cost_delay, cost_tput, *built);
    cache_->insert(w, built);
    base = std::move(built);
  }
  if (patch) ensure_patch_records(cost_delay, cost_tput, *base);
  return base;
}

EvalResult Evaluator::serve_none_from_base(std::span<const double> cost_delay,
                                           const IncrementalBase& base, EvalDetail detail) const {
  ensure_lambda(cost_delay, base);
  EvalResult result = base.none_result;
  result.lambda = base.lambda;
  result.sla_violations = base.sla_violations;
  if (detail == EvalDetail::kFull) {
    const GraphCsr& csr = graph_.csr();
    const std::size_t num_arcs = graph_.num_arcs();
    result.arc_total_load = base.total_load;
    result.arc_utilization.resize(num_arcs);
    result.carries_delay_traffic.resize(num_arcs);
    for (ArcId a = 0; a < num_arcs; ++a) {
      result.arc_utilization[a] = result.arc_total_load[a] / csr.capacity[a];
      result.carries_delay_traffic[a] = base.delay.arc_load(a) > 0.0 ? 1 : 0;
    }
    result.sd_delay_ms = base.sd_delay;
  }
  return result;
}

std::optional<CostPair> Evaluator::evaluate_phi_first(const WeightSetting& w,
                                                      double phi_bound) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::evaluate_phi_first: weight setting size mismatch");
  if (cache_ == nullptr) {
    const CostPair cost = evaluate(w).cost();
    if (cost.phi > phi_bound) return std::nullopt;
    return cost;
  }
  Scratch& scratch = worker_scratch();
  w.arc_costs(graph_, TrafficClass::kDelay, scratch.cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, scratch.cost_tput);
  const std::shared_ptr<const IncrementalBase> base = acquire_base(
      w, scratch.cost_delay, scratch.cost_tput, /*build=*/true, /*patch=*/false);
  if (base->none_result.phi > phi_bound) return std::nullopt;
  ensure_lambda(scratch.cost_delay, *base);
  return CostPair{base->lambda, base->none_result.phi};
}

EvalResult Evaluator::evaluate_impl(std::span<const double> cost_delay,
                                    std::span<const double> cost_tput,
                                    const FailureScenario& scenario, EvalDetail detail,
                                    Scratch& s, const IncrementalBase* base,
                                    EvalStats* stats) const {
  build_alive_mask(graph_, scenario, s.mask);
  const std::span<const NodeId> skip = skipped_nodes(scenario);

  // The shared scratch accumulates patch stats across this scenario's load +
  // delay passes; reset here so the harvest below sees this scenario only.
  if (stats != nullptr) s.failure.reset_stats();

  bool patched = false;
  if (base != nullptr && incremental_eligible(scenario)) {
    if (scenario.kind == FailureScenario::Kind::kNone) {
      if (stats != nullptr) ++stats->scenarios_served_none;
      return serve_none_from_base(cost_delay, *base, detail);
    }
    if (incremental_patchable(scenario)) {
      // One compound representation internally: both patchable kinds —
      // kLink and kCompound — collect their dead arcs through the same
      // element dispatch and ride the same multi-arc delta update.
      // The caller's acquire_base materialized the base's replay records.
      s.removed.clear();
      for_each_failed_arc(graph_, scenario, [&](ArcId a) { s.removed.push_back(a); });
      s.delay_routing.compute_from_base(graph_, cost_delay, traffic_.delay, base->delay,
                                        base->delay_record, s.removed, s.mask,
                                        kIncrementalMaxAffectedFraction, s.failure);
      s.tput_routing.compute_from_base(graph_, cost_tput, traffic_.throughput,
                                       base->tput, base->tput_record, s.removed, s.mask,
                                       kIncrementalMaxAffectedFraction, s.failure);
      patched = true;
    }
  }
  if (!patched) {
    s.delay_routing.compute(graph_, cost_delay, traffic_.delay, s.mask, skip);
    s.tput_routing.compute(graph_, cost_tput, traffic_.throughput, s.mask, skip);
  }

  const ClassRouting& delay_routing = s.delay_routing;
  const ClassRouting& tput_routing = s.tput_routing;

  // Total load and per-arc delay (classes share FIFO queues: D_a depends on
  // the SUM of both classes' loads).
  const GraphCsr& csr = graph_.csr();
  const std::size_t num_arcs = graph_.num_arcs();
  s.total_load.resize(num_arcs);
  s.arc_delay.resize(num_arcs);
  std::vector<double>& total_load = s.total_load;
  std::vector<double>& arc_delay = s.arc_delay;
  for (ArcId a = 0; a < num_arcs; ++a) {
    total_load[a] = delay_routing.arc_load(a) + tput_routing.arc_load(a);
    arc_delay[a] = link_delay_ms(total_load[a], csr.capacity[a], csr.prop_delay_ms[a],
                                 params_.delay_model);
  }

  EvalResult result;

  // Lambda: SLA cost over delay-class SD pairs.
  std::vector<double>& sd_delay = s.sd_delay;
  delay_routing.end_to_end_delays(graph_, cost_delay, s.mask, arc_delay, traffic_.delay,
                                  params_.sla_delay_mode, skip, sd_delay);
  const double disconnect_delay =
      params_.sla.theta_ms + params_.disconnect_delay_excess_ms;
  const SlaAggregate sla = accumulate_sla_cost(sd_delay, params_.sla, disconnect_delay);
  result.lambda = sla.lambda;
  result.sla_violations = sla.violations;
  result.disconnected_delay_pairs = delay_routing.disconnected_demand_count();

  // Phi: Fortz cost over links carrying throughput-sensitive traffic, applied
  // to total load; unroutable throughput demand charged at the max slope.
  for (ArcId a = 0; a < num_arcs; ++a) {
    if (tput_routing.arc_load(a) <= 0.0) continue;
    result.phi += fortz_cost(total_load[a], csr.capacity[a]);
  }
  result.phi += kFortzMaxSlope * tput_routing.disconnected_demand_volume();
  result.disconnected_tput_pairs = tput_routing.disconnected_demand_count();

  if (detail == EvalDetail::kFull) {
    result.arc_total_load = total_load;
    result.arc_utilization.resize(num_arcs);
    result.carries_delay_traffic.resize(num_arcs);
    for (ArcId a = 0; a < num_arcs; ++a) {
      result.arc_utilization[a] = result.arc_total_load[a] / csr.capacity[a];
      result.carries_delay_traffic[a] = delay_routing.arc_load(a) > 0.0 ? 1 : 0;
    }
    result.sd_delay_ms = sd_delay;
  }
  if (stats != nullptr) {
    if (patched) {
      ++stats->scenarios_patched;
      stats->patch.merge(s.failure.stats());
      stats->patch.delay_cols_recomputed += graph_.num_nodes();
    } else {
      ++stats->scenarios_full;
    }
  }
  return result;
}

std::vector<EvalResult> Evaluator::evaluate_failures(
    const WeightSetting& w, std::span<const FailureScenario> scenarios, ThreadPool* pool,
    EvalDetail detail) const {
  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::evaluate_failures: weight setting size mismatch");

  // Arc costs depend only on the weights: expand once, share across scenarios.
  std::vector<double> cost_delay, cost_tput;
  w.arc_costs(graph_, TrafficClass::kDelay, cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, cost_tput);

  const std::shared_ptr<const IncrementalBase> base = acquire_base(
      w, cost_delay, cost_tput,
      std::any_of(scenarios.begin(), scenarios.end(), incremental_eligible),
      std::any_of(scenarios.begin(), scenarios.end(), incremental_patchable));
  const IncrementalBase* base_ptr = base.get();

  // Per-index stats slabs mirror the per-index result slots: each scenario's
  // deterministic counters land in their own slot and are merged on the
  // calling thread, so the published totals are shape-independent.
  telemetry::Registry* reg = config_.telemetry;
  std::vector<EvalStats> slabs(reg != nullptr ? scenarios.size() : 0);

  std::vector<EvalResult> out(scenarios.size());
  parallel_for(pool, scenarios.size(), [&](std::size_t i) {
    out[i] = evaluate_impl(cost_delay, cost_tput, scenarios[i], detail, worker_scratch(),
                           base_ptr, slabs.empty() ? nullptr : &slabs[i]);
  });
  if (reg != nullptr) {
    EvalStats agg;
    for (const EvalStats& s : slabs) agg.merge(s);
    reg->counter("eval.batch_calls").add(1);
    reg->counter("eval.scenarios").add(scenarios.size());
    publish_eval_stats(*reg, agg);
  }
  return out;
}

std::vector<CostPair> Evaluator::evaluate_costs(std::span<const EvalJob> jobs,
                                                ThreadPool* pool) const {
  for (const EvalJob& job : jobs) {
    if (job.weights == nullptr || job.weights->num_links() != graph_.num_links())
      throw std::invalid_argument("Evaluator::evaluate_costs: bad job weights");
  }

  // Heterogeneous jobs usually reference a few distinct weight settings (the
  // Phase-1b acceptable pool) many times each. Group by pointer on the
  // calling thread and acquire one base per distinct setting that has
  // patchable failure jobs (or is already cached), so workers patch instead
  // of recomputing. Grouping happens before any parallelism, so which jobs
  // ride the incremental path is independent of the execution shape.
  std::vector<const IncrementalBase*> job_base(jobs.size(), nullptr);
  std::vector<std::shared_ptr<const IncrementalBase>> held;  // keeps bases alive
  if (cache_ != nullptr && !jobs.empty()) {
    std::vector<const WeightSetting*> distinct;
    std::vector<std::uint8_t> patchable;
    std::vector<std::size_t> group(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::size_t d = 0;
      while (d < distinct.size() && distinct[d] != jobs[i].weights) ++d;
      if (d == distinct.size()) {
        distinct.push_back(jobs[i].weights);
        patchable.push_back(0);
      }
      group[i] = d;
      if (incremental_patchable(jobs[i].scenario)) patchable[d] = 1;
    }

    std::vector<double> cost_delay, cost_tput;
    std::vector<const IncrementalBase*> group_base(distinct.size(), nullptr);
    for (std::size_t d = 0; d < distinct.size(); ++d) {
      const WeightSetting& w = *distinct[d];
      w.arc_costs(graph_, TrafficClass::kDelay, cost_delay);
      w.arc_costs(graph_, TrafficClass::kThroughput, cost_tput);
      if (auto base = acquire_base(w, cost_delay, cost_tput, patchable[d] != 0,
                                   patchable[d] != 0)) {
        group_base[d] = base.get();
        held.push_back(std::move(base));
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) job_base[i] = group_base[group[i]];
  }

  telemetry::Registry* reg = config_.telemetry;
  std::vector<EvalStats> slabs(reg != nullptr ? jobs.size() : 0);

  std::vector<CostPair> out(jobs.size());
  parallel_for(pool, jobs.size(), [&](std::size_t i) {
    Scratch& s = worker_scratch();
    jobs[i].weights->arc_costs(graph_, TrafficClass::kDelay, s.cost_delay);
    jobs[i].weights->arc_costs(graph_, TrafficClass::kThroughput, s.cost_tput);
    out[i] = evaluate_impl(s.cost_delay, s.cost_tput, jobs[i].scenario,
                           EvalDetail::kCostsOnly, s, job_base[i],
                           slabs.empty() ? nullptr : &slabs[i])
                 .cost();
  });
  if (reg != nullptr) {
    EvalStats agg;
    for (const EvalStats& s : slabs) agg.merge(s);
    reg->counter("eval.batch_calls").add(1);
    reg->counter("eval.scenarios").add(jobs.size());
    publish_eval_stats(*reg, agg);
  }
  return out;
}

SweepResult Evaluator::sweep(const WeightSetting& w,
                             std::span<const FailureScenario> scenarios,
                             const SweepOptions& options) const {
  const std::span<const double> scenario_weights = options.scenario_weights;
  const CostPair* abort_bound = options.abort_bound;
  ThreadPool* pool = options.pool;
  if (!scenario_weights.empty() && scenario_weights.size() != scenarios.size())
    throw std::invalid_argument("Evaluator::sweep: scenario_weights size mismatch");

  SweepResult sum;
  const LexicographicOrder order;

  // Accumulates scenario i's (already weighted) costs in order and applies
  // the abort bound; returns true to stop. Terms are consumed in scenario
  // order whatever the round width below, so the parallel sweep is
  // term-for-term identical to the sequential one.
  auto accumulate = [&](double lambda, double phi, double violations) -> bool {
    sum.lambda += lambda;
    sum.phi += phi;
    sum.violations += violations;
    ++sum.scenarios_evaluated;
    if (abort_bound != nullptr) {
      // Partial sums only grow, so once they are lexicographically worse than
      // the bound the final sums must be too. The primary axis is the lambda
      // sum, or the weighted violation sum for the downtime objective.
      const double primary =
          options.abort_on_violations ? sum.violations : sum.lambda;
      const bool primary_worse =
          primary > abort_bound->lambda && !order.values_equal(primary, abort_bound->lambda);
      const bool phi_worse_at_equal_primary =
          order.values_equal(primary, abort_bound->lambda) &&
          sum.phi > abort_bound->phi && !order.values_equal(sum.phi, abort_bound->phi);
      if (primary_worse || phi_worse_at_equal_primary) {
        sum.aborted = true;
        return true;
      }
    }
    return false;
  };

  if (w.num_links() != graph_.num_links())
    throw std::invalid_argument("Evaluator::sweep: weight setting size mismatch");

  // Arc costs depend only on the weights: expand once, share across the sweep.
  std::vector<double> cost_delay, cost_tput;
  w.arc_costs(graph_, TrafficClass::kDelay, cost_delay);
  w.arc_costs(graph_, TrafficClass::kThroughput, cost_tput);

  const std::shared_ptr<const IncrementalBase> base = acquire_base(
      w, cost_delay, cost_tput,
      std::any_of(scenarios.begin(), scenarios.end(), incremental_eligible),
      std::any_of(scenarios.begin(), scenarios.end(), incremental_patchable));
  const IncrementalBase* base_ptr = base.get();

  // Per-scenario terms the ordered accumulation consumes: costs plus the SLA
  // violation count (the downtime objective's raw material) plus the
  // evaluation's deterministic stats.
  struct Term {
    CostPair cost;
    double violations = 0.0;
    EvalStats stats;
  };

  // Stats are merged ONLY for terms the ordered loop consumes — including
  // the aborting term (accumulate counts it in scenarios_evaluated before
  // the bound check) but never the parallel round's post-abort overshoot,
  // which the sequential sweep would not have evaluated. That keeps the
  // published counters identical for any worker count.
  telemetry::Registry* reg = config_.telemetry;
  EvalStats agg;
  const auto finish = [&]() -> SweepResult {
    if (reg != nullptr) {
      reg->counter("sweep.calls").add(1);
      if (sum.aborted) reg->counter("sweep.aborts").add(1);
      reg->counter("eval.scenarios").add(sum.scenarios_evaluated);
      publish_eval_stats(*reg, agg);
    }
    return sum;
  };

  // Rounds of one scenario per worker; without a pool (or with one worker)
  // a round is one scenario and parallel_for runs it inline.
  const std::size_t round = pool != nullptr ? pool->num_workers() : 1;
  std::vector<Term> chunk(round);
  for (std::size_t begin = 0; begin < scenarios.size(); begin += round) {
    const std::size_t count = std::min(round, scenarios.size() - begin);
    parallel_for(pool, count, [&](std::size_t i) {
      // The stats land in a local first: assigning to chunk[i] after the call
      // keeps the whole Term (including stats) one well-ordered write.
      EvalStats ts;
      const EvalResult r = evaluate_impl(cost_delay, cost_tput, scenarios[begin + i],
                                         EvalDetail::kCostsOnly, worker_scratch(),
                                         base_ptr, reg != nullptr ? &ts : nullptr);
      chunk[i] = Term{r.cost(), static_cast<double>(r.sla_violations), ts};
    });
    for (std::size_t i = 0; i < count; ++i) {
      // Validated here, not upfront, so an invalid weight past an abort point
      // never throws (abort wins over throw) for any worker count.
      const double weight = scenario_weights.empty() ? 1.0 : scenario_weights[begin + i];
      if (weight < 0.0) throw std::invalid_argument("Evaluator::sweep: negative weight");
      if (reg != nullptr) agg.merge(chunk[i].stats);
      if (accumulate(weight * chunk[i].cost.lambda, weight * chunk[i].cost.phi,
                     weight * chunk[i].violations))
        return finish();
    }
  }
  return finish();
}

}  // namespace dtr
