#pragma once

/// Observability layer: a registry of named counters, gauges, and histograms
/// plus scoped wall-clock spans, split into two planes with different
/// guarantees:
///
///  - Plane::kDeterministic — values that must be byte-identical across ANY
///    worker/thread shape (cache-path takes, delta-SPF region sizes, sweep
///    aborts, scenarios patched...). Instrumented code enforces this the same
///    way the rest of the repo does: per-worker accumulation into per-index
///    slots, merged on the calling thread in index order. The counters
///    themselves use relaxed atomic adds — integer addition commutes, so once
///    the SET of increments is shape-independent the totals are too.
///  - Plane::kProcess — values that legitimately depend on the execution
///    shape (LRU base-cache hits/misses, worker counts). Excluded from golden
///    artifacts and from deterministic snapshots by default.
///
/// Wall-clock spans (ScopedSpan) live outside both planes: they are exported
/// only through the Chrome-trace sink and the opt-in `spans` JSON section,
/// never into golden artifacts — the same rule PR 2 applied to timings.
///
/// Export is schema-versioned (`dtr.telemetry.v1`) through the deterministic
/// JsonWriter; spans additionally export in the Chrome trace-event format
/// (load the file in chrome://tracing or Perfetto).

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dtr::telemetry {

inline constexpr std::string_view kTelemetrySchema = "dtr.telemetry.v1";

enum class Plane { kDeterministic, kProcess };

/// Monotonic counter. Relaxed atomic adds: safe to increment from any thread;
/// determinism is a property of WHICH increments happen (enforced at the
/// instrumentation sites), not of their order.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge (worker counts, catalog sizes). Snapshot merges
/// overwrite rather than add.
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram over unsigned observations. Bucket i counts
/// observations v with bounds[i-1] < v <= bounds[i]; one extra overflow
/// bucket counts v > bounds.back(). Bounds are fixed at registration, so
/// bucket contents merge across registries by plain addition.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);
  /// Adds pre-binned observations (same bucketing rule, counts.size() must be
  /// bounds().size() + 1). Used to fold per-worker bucket arrays in.
  void merge_buckets(std::span<const std::uint64_t> counts, std::uint64_t count,
                     std::uint64_t sum);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// Point-in-time copy of one plane of a registry, NAME-SORTED so that
/// concurrent registration order can never leak into exported bytes.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  /// Value of the named counter, 0 if absent.
  std::uint64_t counter(std::string_view name) const;
};

/// One closed wall-clock span. Timestamps are absolute steady-clock
/// nanoseconds; exporters normalize to the earliest span. `tid` is a small
/// per-registry thread index (stable within a registry, shifted on merge so
/// merged registries keep distinct lanes), `depth` the nesting level on that
/// thread.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int tid = 0;
  int depth = 0;
};

/// Find-or-create registry of named instruments. Thread-safe: registration
/// takes a mutex, returned references stay valid for the registry's lifetime,
/// increments are lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, Plane plane = Plane::kDeterministic);
  Gauge& gauge(std::string_view name, Plane plane = Plane::kProcess);
  Histogram& histogram(std::string_view name, std::span<const std::uint64_t> bounds,
                       Plane plane = Plane::kDeterministic);

  /// Name-sorted copy of every instrument in `plane`.
  Snapshot snapshot(Plane plane) const;

  /// Folds a snapshot in: counters/histograms add, gauges overwrite.
  void merge_counters(const Snapshot& snap, Plane plane = Plane::kDeterministic);

  /// Appends closed spans from another registry, shifting their thread
  /// indices past this registry's so lanes stay distinct.
  void merge_spans(const std::vector<SpanRecord>& records);

  std::vector<SpanRecord> spans() const;

 private:
  friend class ScopedSpan;
  void record_span(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
                   int depth);
  int tid_for_current_thread_locked();

  template <typename T>
  struct Entry {
    std::string name;
    Plane plane;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mutex_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
  std::vector<SpanRecord> spans_;
  std::vector<std::thread::id> thread_ids_;  // index = per-registry tid
  int next_tid_ = 0;
};

/// RAII wall-clock span; records into `registry` on destruction. A null
/// registry makes it a no-op, so call sites write
/// `ScopedSpan span(config.telemetry, "phase2");` unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(Registry* registry, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Registry* registry_;
  std::string name_;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
};

struct TelemetryJsonOptions {
  bool include_process = true;  // emit the shape-dependent process plane
  bool include_spans = false;   // emit raw span records (wall-time data)
};

/// dtr.telemetry.v1: { schema, name, counters{}, histograms{}, [gauges{}],
/// [process{counters,gauges}], [spans[]] }. The deterministic sections are
/// byte-identical across worker/thread shapes.
void write_telemetry_json(std::ostream& os, const Registry& registry,
                          std::string_view name, const TelemetryJsonOptions& options = {});

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// normalized to the earliest span) — loadable in chrome://tracing / Perfetto.
void write_chrome_trace(std::ostream& os, const Registry& registry);

}  // namespace dtr::telemetry
