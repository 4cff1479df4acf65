/// Telemetry subsystem tests: registry/instrument units (counter merges,
/// histogram bucket math, scoped-span nesting), the deterministic-plane
/// contract — counter snapshots byte-identical across 1-vs-8-thread batch
/// evaluation, sequential-vs-parallel aborted sweeps, optimizer thread
/// shapes, and cell-parallel vs inner-parallel campaigns — plus the export
/// writers. This binary also runs under TSan in CI (concurrent
/// registration/increment/span recording).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "experiments/campaign.h"
#include "experiments/results.h"
#include "routing/failures.h"
#include "telemetry/telemetry.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace {

using namespace dtr;
using namespace dtr::test;
namespace exp = dtr::experiments;

/// Deterministic-plane-only export: the bytes that must match across shapes.
std::string det_json(const telemetry::Registry& reg, std::string_view name) {
  telemetry::TelemetryJsonOptions options;
  options.include_process = false;
  options.include_spans = false;
  std::ostringstream ss;
  write_telemetry_json(ss, reg, name, options);
  return ss.str();
}

TEST(TelemetryRegistryTest, CountersSnapshotNameSortedPerPlane) {
  telemetry::Registry reg;
  reg.counter("zeta").add(3);
  reg.counter("alpha").add(1);
  reg.counter("alpha").add(1);
  reg.counter("mid", telemetry::Plane::kProcess).add(7);

  const telemetry::Snapshot det = reg.snapshot(telemetry::Plane::kDeterministic);
  ASSERT_EQ(det.counters.size(), 2u);
  EXPECT_EQ(det.counters[0].name, "alpha");
  EXPECT_EQ(det.counters[0].value, 2u);
  EXPECT_EQ(det.counters[1].name, "zeta");
  EXPECT_EQ(det.counters[1].value, 3u);
  EXPECT_EQ(det.counter("zeta"), 3u);
  EXPECT_EQ(det.counter("missing"), 0u);  // absent reads as zero

  const telemetry::Snapshot proc = reg.snapshot(telemetry::Plane::kProcess);
  ASSERT_EQ(proc.counters.size(), 1u);
  EXPECT_EQ(proc.counters[0].name, "mid");
  EXPECT_EQ(proc.counters[0].value, 7u);
}

TEST(TelemetryRegistryTest, HistogramBucketEdges) {
  telemetry::Registry reg;
  const std::uint64_t bounds[] = {1, 2, 4};
  telemetry::Histogram& h = reg.histogram("h", bounds);
  // Bucket i counts bounds[i-1] < v <= bounds[i]; v=0 and v=1 share bucket 0,
  // v > bounds.back() lands in the overflow bucket.
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(5);
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0, 1
  EXPECT_EQ(counts[1], 1u);  // 2
  EXPECT_EQ(counts[2], 2u);  // 3, 4
  EXPECT_EQ(counts[3], 1u);  // 5 overflows
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 15u);

  // merge_buckets is the pre-binned batch form of the same rule.
  const std::uint64_t binned[] = {1, 0, 2, 1};
  h.merge_buckets(binned, 4, 11);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[3], 2u);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 26u);
}

TEST(TelemetryRegistryTest, MergeCountersAddsAndGaugesOverwrite) {
  telemetry::Registry a, b;
  a.counter("shared").add(5);
  a.gauge("g").set(1);
  const std::uint64_t bounds[] = {10};
  a.histogram("h", bounds).observe(3);
  b.counter("shared").add(7);
  b.counter("only_b").add(2);
  b.gauge("g", telemetry::Plane::kProcess).set(9);
  b.histogram("h", bounds).observe(30);

  a.merge_counters(b.snapshot(telemetry::Plane::kDeterministic));
  const telemetry::Snapshot det = a.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(det.counter("shared"), 12u);
  EXPECT_EQ(det.counter("only_b"), 2u);
  ASSERT_EQ(det.histograms.size(), 1u);
  EXPECT_EQ(det.histograms[0].count, 2u);
  EXPECT_EQ(det.histograms[0].sum, 33u);
  EXPECT_EQ(det.histograms[0].counts[0], 1u);
  EXPECT_EQ(det.histograms[0].counts[1], 1u);

  a.merge_counters(b.snapshot(telemetry::Plane::kProcess), telemetry::Plane::kProcess);
  const telemetry::Snapshot proc = a.snapshot(telemetry::Plane::kProcess);
  ASSERT_EQ(proc.gauges.size(), 1u);
  EXPECT_EQ(proc.gauges[0].value, 9u);  // overwrite, not add
}

TEST(TelemetryRegistryTest, ScopedSpanNestingDepthsAndMergeLanes) {
  telemetry::Registry reg;
  {
    telemetry::ScopedSpan outer(&reg, "outer");
    telemetry::ScopedSpan inner(&reg, "inner");
  }
  const std::vector<telemetry::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first; both are on this thread's lane.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[1].dur_ns, spans[0].dur_ns);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);

  // Null-registry spans are no-ops; merged spans keep distinct tid lanes.
  { telemetry::ScopedSpan noop(nullptr, "ignored"); }
  telemetry::Registry other;
  { telemetry::ScopedSpan s(&other, "other"); }
  reg.merge_spans(other.spans());
  const std::vector<telemetry::SpanRecord> merged = reg.spans();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NE(merged[2].tid, merged[0].tid);
}

TEST(TelemetryRegistryTest, ConcurrentRegistrationIncrementAndSpans) {
  telemetry::Registry reg;
  const int kThreads = 8, kIters = 1000;
  const std::uint64_t bounds[] = {4, 16};
  const std::string names[] = {"c0", "c1", "c2", "c3"};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &bounds, &names, t] {
      telemetry::ScopedSpan span(&reg, "worker");
      for (int i = 0; i < kIters; ++i) {
        reg.counter(names[(t + i) % 4]).add(1);
        reg.histogram("h", bounds).observe(static_cast<std::uint64_t>(i % 20));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const telemetry::Snapshot snap = reg.snapshot(telemetry::Plane::kDeterministic);
  std::uint64_t total = 0;
  for (const telemetry::CounterValue& c : snap.counters) total += c.value;
  // 4 counter names + 1 histogram, no increments lost.
  ASSERT_EQ(snap.counters.size(), 4u);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kIters));
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(reg.spans().size(), static_cast<std::size_t>(kThreads));
}

TEST(TelemetryExportTest, JsonAndChromeTraceShapes) {
  telemetry::Registry reg;
  reg.counter("eval.scenarios").add(40);
  reg.counter("cache.hits", telemetry::Plane::kProcess).add(3);
  const std::uint64_t bounds[] = {1, 2};
  reg.histogram("region", bounds).observe(2);
  { telemetry::ScopedSpan span(&reg, "phase"); }

  telemetry::TelemetryJsonOptions options;
  options.include_spans = true;
  std::ostringstream full;
  write_telemetry_json(full, reg, "unit", options);
  const std::string text = full.str();
  EXPECT_NE(text.find("\"schema\": \"dtr.telemetry.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"eval.scenarios\": 40"), std::string::npos);
  EXPECT_NE(text.find("\"process\""), std::string::npos);
  EXPECT_NE(text.find("\"spans\""), std::string::npos);
  // The deterministic export carries neither wall-time nor process data.
  const std::string det = det_json(reg, "unit");
  EXPECT_EQ(det.find("\"process\""), std::string::npos);
  EXPECT_EQ(det.find("\"spans\""), std::string::npos);
  EXPECT_NE(det.find("\"region\""), std::string::npos);

  std::ostringstream trace;
  write_chrome_trace(trace, reg);
  const std::string trace_text = trace.str();
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"name\": \"phase\""), std::string::npos);
  EXPECT_NE(trace_text.find("\"ph\": \"X\""), std::string::npos);
}

TEST(TelemetryExportTest, ChromeTraceEventContentAndOrdering) {
  telemetry::Registry reg;
  {
    telemetry::ScopedSpan outer(&reg, "phase1a");
    telemetry::ScopedSpan inner(&reg, "spf");
  }
  { telemetry::ScopedSpan later(&reg, "phase2"); }

  std::ostringstream os;
  write_chrome_trace(os, reg);
  const std::string text = os.str();

  // Every span becomes one complete ("X") event with the full key set.
  std::size_t ph_count = 0;
  for (std::size_t at = text.find("\"ph\": \"X\""); at != std::string::npos;
       at = text.find("\"ph\": \"X\"", at + 1))
    ++ph_count;
  EXPECT_EQ(ph_count, 3u);
  for (const char* key : {"\"cat\": \"dtr\"", "\"ts\":", "\"dur\":", "\"pid\": 1",
                          "\"tid\":", "\"displayTimeUnit\": \"ms\""})
    EXPECT_NE(text.find(key), std::string::npos) << key;

  // Records appear in close order (inner before outer before phase2), and
  // timestamps are normalized so the earliest span starts at ts 0 — which is
  // the OUTER span, even though it closed second.
  const std::size_t at_inner = text.find("\"name\": \"spf\"");
  const std::size_t at_outer = text.find("\"name\": \"phase1a\"");
  const std::size_t at_later = text.find("\"name\": \"phase2\"");
  ASSERT_NE(at_inner, std::string::npos);
  ASSERT_NE(at_outer, std::string::npos);
  ASSERT_NE(at_later, std::string::npos);
  EXPECT_LT(at_inner, at_outer);
  EXPECT_LT(at_outer, at_later);
  const std::size_t outer_ts = text.find("\"ts\": 0,", at_outer);
  EXPECT_NE(outer_ts, std::string::npos);
  EXPECT_LT(outer_ts, at_later);
}

// ---------------------------------------------------------------------------
// Deterministic-plane contract across execution shapes.
// ---------------------------------------------------------------------------

TEST(TelemetryDeterminismTest, BatchEvaluationCountersShapeIdentical) {
  const TestInstance inst = make_test_instance(10, 4.0, 7);
  const WeightSetting w = random_weights(inst.graph, 30, 11);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);

  telemetry::Registry seq_reg, par_reg;
  EvaluatorConfig seq_config, par_config;
  seq_config.telemetry = &seq_reg;
  par_config.telemetry = &par_reg;
  const Evaluator seq(inst.graph, inst.traffic, inst.params, seq_config);
  const Evaluator par(inst.graph, inst.traffic, inst.params, par_config);

  ThreadPool eight(8);
  (void)seq.evaluate_failures(w, scenarios, nullptr);
  (void)par.evaluate_failures(w, scenarios, &eight);

  const std::string seq_bytes = det_json(seq_reg, "sweep");
  EXPECT_EQ(seq_bytes, det_json(par_reg, "sweep"));

  // The counters are real: every scenario was seen, and on this incremental
  // config the delta path fed the affected-region histogram.
  const telemetry::Snapshot snap = seq_reg.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(snap.counter("eval.scenarios"), scenarios.size());
  EXPECT_EQ(snap.counter("eval.patched") + snap.counter("eval.full") +
                snap.counter("eval.served_none"),
            scenarios.size());
  EXPECT_GT(snap.counter("spf.dests_delta"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "spf.affected_region");
  EXPECT_EQ(snap.histograms[0].count, snap.counter("spf.dests_delta"));
  EXPECT_EQ(snap.histograms[0].sum, snap.counter("spf.affected_nodes"));
}

TEST(TelemetryDeterminismTest, AbortedSweepCountsConsumedTermsOnly) {
  const TestInstance inst = make_test_instance(10, 4.0, 13, 0.6);
  const WeightSetting w = random_weights(inst.graph, 30, 17);
  const std::vector<FailureScenario> scenarios = all_link_failures(inst.graph);
  const CostPair tight{0.0, 0.0};

  telemetry::Registry seq_reg, par_reg;
  EvaluatorConfig seq_config, par_config;
  seq_config.telemetry = &seq_reg;
  par_config.telemetry = &par_reg;
  const Evaluator seq(inst.graph, inst.traffic, inst.params, seq_config);
  const Evaluator par(inst.graph, inst.traffic, inst.params, par_config);

  ThreadPool eight(8);
  const SweepResult a = seq.sweep(w, scenarios, {.abort_bound = &tight});
  const SweepResult b =
      par.sweep(w, scenarios, {.abort_bound = &tight, .pool = &eight});
  ASSERT_TRUE(a.aborted);
  ASSERT_EQ(a.scenarios_evaluated, b.scenarios_evaluated);
  // Parallel rounds overshoot the abort point, but only CONSUMED terms are
  // merged — the deterministic plane must not see the speculative extras.
  EXPECT_EQ(det_json(seq_reg, "abort"), det_json(par_reg, "abort"));
  const telemetry::Snapshot snap = seq_reg.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(snap.counter("sweep.calls"), 1u);
  EXPECT_EQ(snap.counter("sweep.aborts"), 1u);
  EXPECT_EQ(snap.counter("eval.scenarios"), a.scenarios_evaluated);
}

TEST(TelemetryDeterminismTest, OptimizerCountersThreadShapeIdentical) {
  const TestInstance inst = make_test_instance(8, 4.0, 19);

  // The sink is attached to the evaluator too, so the sweep and eval
  // counters of Phase 2's committed candidates join the comparison.
  const auto run = [&](int num_threads, telemetry::Registry* sink) {
    const Evaluator ev(inst.graph, inst.traffic, inst.params, {.telemetry = sink});
    OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 3);
    config.num_threads = num_threads;
    config.telemetry = sink;
    return RobustOptimizer(ev, config).optimize();
  };
  telemetry::Registry one, eight;
  const OptimizeResult r1 = run(1, &one);
  const OptimizeResult r8 = run(8, &eight);

  EXPECT_EQ(det_json(one, "opt"), det_json(eight, "opt"));
  const telemetry::Snapshot snap = one.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(snap.counter("optimizer.runs"), 1u);
  EXPECT_GT(snap.counter("sweep.calls"), 0u);
  EXPECT_GT(snap.counter("eval.scenarios"), 0u);
  EXPECT_EQ(snap.counter("optimizer.phase1_evaluations"),
            static_cast<std::uint64_t>(r1.phase1_evaluations));
  EXPECT_EQ(snap.counter("optimizer.critical_links"), r1.critical.size());
  // Sink got the phase spans (1a/1b/1c/2) but NOT the base-cache diff.
  EXPECT_EQ(one.spans().size(), 4u);
  EXPECT_EQ(one.snapshot(telemetry::Plane::kProcess).counters.size(), 0u);
  EXPECT_EQ(eight.snapshot(telemetry::Plane::kDeterministic)
                .counter("optimizer.phase2_evaluations"),
            static_cast<std::uint64_t>(r8.phase2_evaluations));
}

// ---------------------------------------------------------------------------
// Campaign integration: spec key, artifact block, shape identity.
// ---------------------------------------------------------------------------

constexpr const char* kTeleSpec = R"(name = tele
effort = smoke
seed = 5
[cell]
id = a
topology = rand
nodes = 8
degree = 4
repeats = 1
telemetry = 1
[cell]
id = b
topology = rand
nodes = 8
degree = 4
seed = 9
repeats = 2
telemetry = 1
)";

TEST(TelemetryCampaignTest, CellBlocksAndSinkShapeIdentical) {
  std::istringstream spec(kTeleSpec);
  const exp::Campaign campaign = exp::parse_campaign_spec(spec);
  ASSERT_EQ(campaign.cells.size(), 2u);
  ASSERT_TRUE(campaign.cells[0].telemetry);

  telemetry::Registry cells_par, inner_par;
  exp::CampaignOptions a{2, 1, {}, &cells_par};
  exp::CampaignOptions b{1, 2, {}, &inner_par};
  const exp::CampaignResult ra = exp::run_campaign(campaign, a);
  const exp::CampaignResult rb = exp::run_campaign(campaign, b);
  ASSERT_TRUE(ra.cells[0].error.empty()) << ra.cells[0].error;

  // The whole artifact — including the embedded per-cell telemetry blocks —
  // and the merged sink are byte-identical across execution shapes.
  EXPECT_EQ(exp::campaign_json(ra), exp::campaign_json(rb));
  EXPECT_EQ(det_json(cells_par, "tele"), det_json(inner_par, "tele"));

  ASSERT_FALSE(ra.cells[0].telemetry.empty());
  EXPECT_NE(exp::campaign_json(ra).find("\"telemetry\""), std::string::npos);
  const telemetry::Snapshot snap = cells_par.snapshot(telemetry::Plane::kDeterministic);
  EXPECT_EQ(snap.counter("campaign.cells"), 2u);
  EXPECT_EQ(snap.counter("campaign.reps"), 3u);
  EXPECT_GT(snap.counter("optimizer.runs"), 0u);
  EXPECT_GT(snap.counter("eval.scenarios"), 0u);
  // One "cell:<id>" span per cell plus the optimizer phase spans.
  EXPECT_GE(cells_par.spans().size(), 2u);
  // The evaluator owners (cell reps) flushed cache totals to the sink.
  EXPECT_GT(cells_par.snapshot(telemetry::Plane::kProcess).counter(
                "evaluator.base_cache.misses"),
            0u);
}

TEST(TelemetryCampaignTest, ArtifactUnchangedWithoutOptIn) {
  // Same spec minus the telemetry keys: attaching a sink must not change the
  // artifact's bytes (that is what lets CI export telemetry from the golden
  // smoke campaign without touching the goldens).
  std::istringstream all(kTeleSpec);
  std::string plain, line;
  while (std::getline(all, line))
    if (line.rfind("telemetry", 0) != 0) plain += line + "\n";
  std::istringstream spec(plain);
  const exp::Campaign campaign = exp::parse_campaign_spec(spec);

  telemetry::Registry sink;
  const exp::CampaignResult with = exp::run_campaign(campaign, {1, 1, {}, &sink});
  const exp::CampaignResult without = exp::run_campaign(campaign, {1, 1, {}});
  EXPECT_EQ(exp::campaign_json(with), exp::campaign_json(without));
  EXPECT_TRUE(with.cells[0].telemetry.empty());
  // The sink still collected the run.
  EXPECT_GT(sink.snapshot(telemetry::Plane::kDeterministic).counter("campaign.cells"),
            0u);
}

TEST(TelemetryCampaignTest, SpecRejectsBadTelemetryValue) {
  std::istringstream spec("[cell]\ntelemetry = maybe\n");
  EXPECT_THROW((void)exp::parse_campaign_spec(spec), std::runtime_error);
}

}  // namespace
