#include "telemetry/telemetry.h"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "util/json.h"

namespace dtr::telemetry {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local int tls_span_depth = 0;

template <typename Entry, typename Make>
auto& find_or_create(std::vector<Entry>& entries, std::string_view name, Plane plane,
                     const Make& make) {
  for (auto& entry : entries)
    if (entry.name == name) return *entry.instrument;
  entries.push_back(Entry{std::string(name), plane, make()});
  return *entries.back().instrument;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(std::uint64_t v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::merge_buckets(std::span<const std::uint64_t> counts, std::uint64_t count,
                              std::uint64_t sum) {
  const std::size_t n = std::min(counts.size(), counts_.size());
  for (std::size_t i = 0; i < n; ++i)
    counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

// ---------------------------------------------------------------------------
// Registry

Counter& Registry::counter(std::string_view name, Plane plane) {
  const std::lock_guard lock(mutex_);
  return find_or_create(counters_, name, plane,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name, Plane plane) {
  const std::lock_guard lock(mutex_);
  return find_or_create(gauges_, name, plane, [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name, std::span<const std::uint64_t> bounds,
                               Plane plane) {
  const std::lock_guard lock(mutex_);
  return find_or_create(histograms_, name, plane, [&] {
    return std::make_unique<Histogram>(
        std::vector<std::uint64_t>(bounds.begin(), bounds.end()));
  });
}

Snapshot Registry::snapshot(Plane plane) const {
  Snapshot snap;
  {
    const std::lock_guard lock(mutex_);
    for (const auto& entry : counters_)
      if (entry.plane == plane)
        snap.counters.push_back({entry.name, entry.instrument->value()});
    for (const auto& entry : gauges_)
      if (entry.plane == plane)
        snap.gauges.push_back({entry.name, entry.instrument->value()});
    for (const auto& entry : histograms_)
      if (entry.plane == plane)
        snap.histograms.push_back({entry.name, entry.instrument->bounds(),
                                   entry.instrument->counts(), entry.instrument->count(),
                                   entry.instrument->sum()});
  }
  // Name-sorted: concurrent registration order must never leak into bytes.
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::merge_counters(const Snapshot& snap, Plane plane) {
  for (const auto& c : snap.counters) counter(c.name, plane).add(c.value);
  for (const auto& g : snap.gauges) gauge(g.name, plane).set(g.value);
  for (const auto& h : snap.histograms)
    histogram(h.name, h.bounds, plane).merge_buckets(h.counts, h.count, h.sum);
}

void Registry::merge_spans(const std::vector<SpanRecord>& records) {
  if (records.empty()) return;
  const std::lock_guard lock(mutex_);
  int max_tid = 0;
  for (const auto& r : records) max_tid = std::max(max_tid, r.tid);
  const int offset = next_tid_;
  for (const auto& r : records) {
    SpanRecord shifted = r;
    shifted.tid += offset;
    spans_.push_back(std::move(shifted));
  }
  next_tid_ = offset + max_tid + 1;
}

std::vector<SpanRecord> Registry::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

int Registry::tid_for_current_thread_locked() {
  const std::thread::id id = std::this_thread::get_id();
  for (std::size_t i = 0; i < thread_ids_.size(); ++i)
    if (thread_ids_[i] == id) return static_cast<int>(i);
  thread_ids_.push_back(id);
  next_tid_ = std::max(next_tid_, static_cast<int>(thread_ids_.size()));
  return static_cast<int>(thread_ids_.size()) - 1;
}

void Registry::record_span(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
                           int depth) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(
      {std::move(name), start_ns, dur_ns, tid_for_current_thread_locked(), depth});
}

// ---------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(Registry* registry, std::string name)
    : registry_(registry), name_(std::move(name)) {
  if (!registry_) return;
  depth_ = tls_span_depth++;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!registry_) return;
  --tls_span_depth;
  registry_->record_span(std::move(name_), start_ns_, now_ns() - start_ns_, depth_);
}

// ---------------------------------------------------------------------------
// Export

namespace {

void write_counters_object(JsonWriter& w, const std::vector<CounterValue>& counters) {
  w.begin_object();
  for (const auto& c : counters) w.key(c.name).value(c.value);
  w.end_object();
}

void write_gauges_object(JsonWriter& w, const std::vector<GaugeValue>& gauges) {
  w.begin_object();
  for (const auto& g : gauges) w.key(g.name).value(g.value);
  w.end_object();
}

void write_histograms_object(JsonWriter& w, const std::vector<HistogramValue>& histograms) {
  w.begin_object();
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.key("bounds").begin_array();
    for (const std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.end_object();
  }
  w.end_object();
}

std::uint64_t min_start(const std::vector<SpanRecord>& spans) {
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  return spans.empty() ? 0 : origin;
}

}  // namespace

void write_telemetry_json(std::ostream& os, const Registry& registry,
                          std::string_view name, const TelemetryJsonOptions& options) {
  const Snapshot det = registry.snapshot(Plane::kDeterministic);
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kTelemetrySchema);
  w.key("name").value(name);
  w.key("counters");
  write_counters_object(w, det.counters);
  w.key("histograms");
  write_histograms_object(w, det.histograms);
  if (!det.gauges.empty()) {
    w.key("gauges");
    write_gauges_object(w, det.gauges);
  }
  if (options.include_process) {
    const Snapshot proc = registry.snapshot(Plane::kProcess);
    w.key("process").begin_object();
    w.key("counters");
    write_counters_object(w, proc.counters);
    if (!proc.gauges.empty()) {
      w.key("gauges");
      write_gauges_object(w, proc.gauges);
    }
    if (!proc.histograms.empty()) {
      w.key("histograms");
      write_histograms_object(w, proc.histograms);
    }
    w.end_object();
  }
  if (options.include_spans) {
    const std::vector<SpanRecord> spans = registry.spans();
    const std::uint64_t origin = min_start(spans);
    w.key("spans").begin_array();
    for (const auto& s : spans) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("start_ns").value(s.start_ns - origin);
      w.key("dur_ns").value(s.dur_ns);
      w.key("tid").value(s.tid);
      w.key("depth").value(s.depth);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  os << "\n";
}

void write_chrome_trace(std::ostream& os, const Registry& registry) {
  const std::vector<SpanRecord> spans = registry.spans();
  const std::uint64_t origin = min_start(spans);
  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const auto& s : spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value("dtr");
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(s.start_ns - origin) / 1e3);
    w.key("dur").value(static_cast<double>(s.dur_ns) / 1e3);
    w.key("pid").value(1);
    w.key("tid").value(s.tid);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace dtr::telemetry
