/// Streaming-events tests: EventBus ring semantics (FIFO, overflow drop
/// accounting, concurrent publishers losing nothing), the dtr.events.v1 line
/// format, the deterministic-plane contract — optimizer event streams and
/// campaign event sinks byte-identical across thread shapes — plus the
/// convergence trace recorded into OptimizeResult and the Prometheus
/// exposer (rendering and a live HTTP scrape). Runs under TSan in CI via the
/// smoke label (concurrent publish against drain).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "cost/cost_types.h"
#include "experiments/campaign.h"
#include "telemetry/events.h"
#include "telemetry/exposer.h"
#include "telemetry/telemetry.h"
#include "test_helpers.h"

namespace {

using namespace dtr;
using namespace dtr::test;
namespace exp = dtr::experiments;
namespace tel = dtr::telemetry;

tel::Event iteration_event(std::uint64_t iter, std::int64_t link) {
  tel::Event e;
  e.kind = tel::EventKind::kIteration;
  e.label = "phase2";
  e.iteration = iter;
  e.evaluations = iter * 10;
  e.link = link;
  e.cost_lambda = 1.5;
  e.cost_phi = 2.5;
  return e;
}

/// Concatenated JSONL of the deterministic-plane events only — the bytes the
/// CI golden gate diffs across shapes.
std::string det_plane_jsonl(const std::vector<tel::Event>& events) {
  std::string out;
  for (const tel::Event& e : events)
    if (e.plane == tel::Plane::kDeterministic) out += tel::event_json_line(e) + "\n";
  return out;
}

TEST(EventBusTest, FifoDrainAndCounts) {
  tel::EventBus bus(8);
  EXPECT_EQ(bus.capacity(), 8u);
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_TRUE(bus.publish(iteration_event(i, static_cast<std::int64_t>(i))));
  EXPECT_EQ(bus.published(), 5u);
  EXPECT_EQ(bus.dropped(), 0u);

  const std::vector<tel::Event> events = bus.drain();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].iteration, i);
    EXPECT_EQ(events[i].link, static_cast<std::int64_t>(i));
    EXPECT_EQ(events[i].label, "phase2");
  }
  EXPECT_TRUE(bus.drain().empty());
}

TEST(EventBusTest, OverflowDropsAreCountedNotSilent) {
  tel::EventBus bus(4);  // capacity rounds to a power of two
  for (std::uint64_t i = 0; i < 10; ++i) (void)bus.publish(iteration_event(i, 0));
  EXPECT_EQ(bus.published(), 4u);
  EXPECT_EQ(bus.dropped(), 6u);
  // The ring kept the OLDEST events (drop-new policy: the publisher backs
  // off, the stream stays contiguous from the front).
  const std::vector<tel::Event> events = bus.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].iteration, 0u);
  EXPECT_EQ(events[3].iteration, 3u);
  // Slots recycle after a drain; drop counting resumes where it left off.
  ASSERT_TRUE(bus.publish(iteration_event(99, 0)));
  EXPECT_EQ(bus.drain().size(), 1u);
  EXPECT_EQ(bus.dropped(), 6u);
}

TEST(EventBusTest, CapacityRoundsUpToPowerOfTwo) {
  tel::EventBus bus(5);
  EXPECT_EQ(bus.capacity(), 8u);
  tel::EventBus one(1);  // floor of 2: a 1-slot ring cannot distinguish states
  EXPECT_EQ(one.capacity(), 2u);
}

TEST(EventBusTest, ConcurrentPublishersLoseNothingBelowCapacity) {
  const int kThreads = 8, kPerThread = 500;
  tel::EventBus bus(1 << 13);  // 8192 > 4000
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, t] {
      for (int i = 0; i < kPerThread; ++i)
        (void)bus.publish(iteration_event(static_cast<std::uint64_t>(i),
                                          static_cast<std::int64_t>(t)));
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bus.dropped(), 0u);
  const std::vector<tel::Event> events = bus.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Per-publisher subsequences stay in order even though the interleaving is
  // arbitrary, and no publisher's events were lost or duplicated.
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const tel::Event& e : events) {
    const auto t = static_cast<std::size_t>(e.link);
    ASSERT_LT(t, next.size());
    EXPECT_EQ(e.iteration, next[t]);
    ++next[t];
  }
}

TEST(EventJsonTest, LineShapesAndPlaneTagging) {
  tel::Event it = iteration_event(3, 7);
  EXPECT_EQ(tel::event_json_line(it),
            "{\"event\":\"iter\",\"plane\":\"det\",\"label\":\"phase2\",\"iter\":3,"
            "\"evals\":30,\"link\":7,\"lambda\":1.5,\"phi\":2.5,\"restart\":false}");

  tel::Event progress;
  progress.kind = tel::EventKind::kProgress;
  progress.plane = tel::Plane::kProcess;
  progress.label = "cell-a";
  progress.done = 1;
  progress.total = 2;
  progress.wall_ms = 42;
  EXPECT_EQ(tel::event_json_line(progress),
            "{\"event\":\"progress\",\"plane\":\"process\",\"label\":\"cell-a\","
            "\"done\":1,\"total\":2,\"wall_ms\":42}");

  std::ostringstream header;
  tel::write_events_header(header);
  EXPECT_EQ(header.str(), "{\"event\":\"schema\",\"plane\":\"det\",\"schema\":\"dtr.events.v1\"}\n");
}

TEST(EventJsonTest, ProducerHelpersStampPlanesAndTolerateNull) {
  tel::publish_process(nullptr, tel::Event{});        // no-op, no crash
  tel::publish_deterministic(nullptr, tel::Event{});  // no-op, no crash

  tel::EventBus bus(8);
  tel::Event hb;
  hb.kind = tel::EventKind::kCellStart;
  hb.label = "cell";
  tel::publish_process(&bus, std::move(hb));
  tel::Event det;
  det.kind = tel::EventKind::kPhaseStart;
  det.label = "phase1a";
  tel::publish_deterministic(&bus, std::move(det));

  const std::vector<tel::Event> events = bus.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].plane, tel::Plane::kProcess);
  const std::string process_line = tel::event_json_line(events[0]);
  EXPECT_NE(process_line.find("\"wall_ms\":"), std::string::npos);
  EXPECT_EQ(events[1].plane, tel::Plane::kDeterministic);
  EXPECT_EQ(events[1].wall_ms, 0u);
}

TEST(EventJsonTest, SnapshotDeltaEmitsOnlyIncreasedCounters) {
  telemetry::Registry reg;
  reg.counter("a").add(2);
  reg.counter("flat").add(1);
  const tel::Snapshot before = reg.snapshot(tel::Plane::kDeterministic);
  reg.counter("a").add(3);
  reg.counter("fresh").add(7);
  const tel::Snapshot now = reg.snapshot(tel::Plane::kDeterministic);

  tel::EventBus bus(8);
  tel::publish_snapshot_delta(&bus, before, now);
  const std::vector<tel::Event> events = bus.drain();
  ASSERT_EQ(events.size(), 2u);  // "a" +3 and "fresh" +7; "flat" unchanged
  EXPECT_EQ(events[0].kind, tel::EventKind::kCounterDelta);
  EXPECT_EQ(events[0].label, "a");
  EXPECT_EQ(events[0].value, 3u);
  EXPECT_EQ(events[1].label, "fresh");
  EXPECT_EQ(events[1].value, 7u);
}

// ---------------------------------------------------------------------------
// Optimizer integration: deterministic stream, convergence trace.
// ---------------------------------------------------------------------------

TEST(OptimizerEventsTest, DetPlaneByteIdenticalAcrossThreadShapes) {
  const TestInstance inst = make_test_instance(8, 4.0, 19);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);

  const auto run = [&](int num_threads, tel::EventBus* bus) {
    OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 3);
    config.num_threads = num_threads;
    config.events = bus;
    return RobustOptimizer(ev, config).optimize();
  };
  tel::EventBus one_bus, eight_bus;
  const OptimizeResult r1 = run(1, &one_bus);
  const OptimizeResult r8 = run(8, &eight_bus);
  ASSERT_EQ(one_bus.dropped(), 0u);
  ASSERT_EQ(eight_bus.dropped(), 0u);

  const std::vector<tel::Event> e1 = one_bus.drain();
  const std::vector<tel::Event> e8 = eight_bus.drain();
  const std::string det1 = det_plane_jsonl(e1);
  EXPECT_EQ(det1, det_plane_jsonl(e8));
  EXPECT_FALSE(det1.empty());

  // One iteration record per accepted move / restart adoption, matching the
  // embedded convergence trace field for field, for either shape.
  const auto expect_matches_trace = [](const std::vector<tel::Event>& events,
                                       const OptimizeResult& r) {
    std::size_t i = 0;
    for (const tel::Event& e : events) {
      if (e.kind != tel::EventKind::kIteration) continue;
      ASSERT_LT(i, r.trace.size());
      const TraceMove& tm = r.trace[i++];
      EXPECT_EQ(e.label, tm.phase == 1 ? "phase1" : "phase2") << i;
      EXPECT_EQ(e.iteration, static_cast<std::uint64_t>(tm.move.iteration)) << i;
      EXPECT_EQ(e.evaluations, static_cast<std::uint64_t>(tm.move.evaluations)) << i;
      EXPECT_EQ(e.link, tm.move.link == kInvalidLink ? -1
                                                     : static_cast<std::int64_t>(tm.move.link))
          << i;
      EXPECT_EQ(e.cost_lambda, tm.move.cost.lambda) << i;
      EXPECT_EQ(e.cost_phi, tm.move.cost.phi) << i;
      EXPECT_EQ(e.restart, tm.move.restart) << i;
    }
    EXPECT_EQ(i, r.trace.size());
  };
  expect_matches_trace(e1, r1);
  expect_matches_trace(e8, r8);

  // Phase markers frame the stream: every phase start has a matching end.
  std::size_t starts = 0, ends = 0;
  for (const tel::Event& e : e1) {
    if (e.kind == tel::EventKind::kPhaseStart) ++starts;
    if (e.kind == tel::EventKind::kPhaseEnd) ++ends;
  }
  EXPECT_EQ(starts, 4u);  // phase1a, phase1b, phase1c, phase2
  EXPECT_EQ(ends, 4u);    // phase1a and phase2 additionally carry search totals
}

TEST(OptimizerEventsTest, AttachedBusChangesNoDecision) {
  const TestInstance inst = make_test_instance(8, 4.0, 19);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  const auto run = [&](tel::EventBus* bus) {
    OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 3);
    config.events = bus;
    return RobustOptimizer(ev, config).optimize();
  };
  tel::EventBus bus;
  const OptimizeResult on = run(&bus);
  const OptimizeResult off = run(nullptr);

  // A null bus is "off"; attaching one observes the run without changing
  // any decision.
  EXPECT_FALSE(bus.drain().empty());
  EXPECT_EQ(off.robust, on.robust);
  EXPECT_EQ(off.regular, on.regular);
}

TEST(OptimizerEventsTest, TraceCostsImproveBetweenRestarts) {
  const TestInstance inst = make_test_instance(8, 4.0, 29);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 7);
  const OptimizeResult result = RobustOptimizer(ev, config).optimize();

  ASSERT_FALSE(result.trace.empty());
  std::size_t phase2_accepts = 0;
  bool have_incumbent = false;
  CostPair incumbent{};
  for (const TraceMove& tm : result.trace) {
    if (tm.phase != 2) continue;
    if (tm.move.restart) {
      // Diversification adopts a perturbed (usually worse) incumbent; the
      // monotonicity clock restarts here.
      incumbent = tm.move.cost;
      have_incumbent = true;
      continue;
    }
    ++phase2_accepts;
    if (have_incumbent) {
      // The search's own acceptance rule: lambda equal within tolerance
      // falls through to phi, so an exact tuple compare is the wrong oracle.
      EXPECT_TRUE(LexicographicOrder().less(tm.move.cost, incumbent))
          << "accepted move did not improve the incumbent";
    }
    incumbent = tm.move.cost;
    have_incumbent = true;
  }
  EXPECT_GT(phase2_accepts, 0u);
}

TEST(OptimizerEventsTest, LinkChangeAttributionMatchesTrace) {
  const TestInstance inst = make_test_instance(8, 4.0, 31);
  const Evaluator ev(inst.graph, inst.traffic, inst.params);
  OptimizerConfig config = default_optimizer_config(Effort::kSmoke, 5);
  const OptimizeResult result = RobustOptimizer(ev, config).optimize();

  std::vector<std::uint64_t> tally(inst.graph.num_links(), 0);
  for (const TraceMove& tm : result.trace)
    if (!tm.move.restart && tm.move.link != kInvalidLink) ++tally[tm.move.link];

  ASSERT_FALSE(result.link_changes.empty());
  LinkId prev = 0;
  bool first = true;
  std::uint64_t total = 0;
  for (const auto& [link, count] : result.link_changes) {
    if (!first) {
      EXPECT_GT(link, prev);  // ascending, no duplicates
    }
    first = false;
    prev = link;
    EXPECT_GT(count, 0u);  // zero-change links are omitted
    ASSERT_LT(static_cast<std::size_t>(link), tally.size());
    EXPECT_EQ(count, tally[link]);
    total += count;
  }
  std::uint64_t tally_total = 0;
  for (std::uint64_t c : tally) tally_total += c;
  EXPECT_EQ(total, tally_total);
}

// ---------------------------------------------------------------------------
// Campaign integration: events= spec key, sink shape identity.
// ---------------------------------------------------------------------------

constexpr const char* kEventsSpec = R"(name = ev
effort = smoke
seed = 5
[cell]
id = a
topology = rand
nodes = 8
degree = 4
repeats = 2
events = 1
[cell]
id = b
topology = rand
nodes = 8
degree = 4
seed = 9
repeats = 1
events = 1
)";

TEST(CampaignEventsTest, SinkDetPlaneShapeIdenticalAndArtifactUntouched) {
  std::istringstream spec_a(kEventsSpec), spec_b(kEventsSpec);
  const exp::Campaign campaign = exp::parse_campaign_spec(spec_a);
  ASSERT_EQ(campaign.cells.size(), 2u);
  ASSERT_TRUE(campaign.cells[0].events);

  tel::EventBus cells_par(1 << 15), inner_par(1 << 15);
  exp::CampaignOptions a{2, 1, {}, nullptr, &cells_par};
  exp::CampaignOptions b{1, 2, {}, nullptr, &inner_par};
  const exp::CampaignResult ra = exp::run_campaign(campaign, a);
  const exp::CampaignResult rb = exp::run_campaign(campaign, b);
  ASSERT_TRUE(ra.cells[0].error.empty()) << ra.cells[0].error;
  ASSERT_EQ(cells_par.dropped(), 0u);

  const std::vector<tel::Event> ea = cells_par.drain();
  const std::vector<tel::Event> eb = inner_par.drain();
  const std::string det_a = det_plane_jsonl(ea);
  EXPECT_FALSE(det_a.empty());
  EXPECT_EQ(det_a, det_plane_jsonl(eb));

  // Process-plane heartbeats bracket each cell in campaign (drain) order.
  std::vector<std::string> starts;
  for (const tel::Event& e : ea)
    if (e.kind == tel::EventKind::kCellStart) starts.push_back(e.label);
  EXPECT_EQ(starts, (std::vector<std::string>{"a", "b"}));

  // Attaching the event sink must not change the campaign artifact bytes.
  const exp::CampaignResult plain =
      exp::run_campaign(exp::parse_campaign_spec(spec_b), {2, 1, {}});
  EXPECT_EQ(exp::campaign_json(ra), exp::campaign_json(plain));
}

TEST(CampaignEventsTest, CellsWithoutOptInStaySilent) {
  std::istringstream all(kEventsSpec);
  std::string plain, line;
  while (std::getline(all, line))
    if (line.rfind("events", 0) != 0) plain += line + "\n";
  std::istringstream spec(plain);
  const exp::Campaign campaign = exp::parse_campaign_spec(spec);
  ASSERT_FALSE(campaign.cells[0].events);

  tel::EventBus sink;
  exp::CampaignOptions options{1, 1, {}, nullptr, &sink};
  (void)exp::run_campaign(campaign, options);
  EXPECT_EQ(sink.published(), 0u);
}

TEST(CampaignEventsTest, SpecRejectsBadEventsValue) {
  std::istringstream spec("[cell]\nevents = maybe\n");
  EXPECT_THROW((void)exp::parse_campaign_spec(spec), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Prometheus exposer.
// ---------------------------------------------------------------------------

TEST(ExposerTest, RendersCountersGaugesAndCumulativeHistograms) {
  telemetry::Registry reg;
  reg.counter("eval.scenarios").add(40);
  reg.counter("cache.hits", tel::Plane::kProcess).add(3);
  reg.gauge("optimizer.live.phase").set(2);
  const std::uint64_t bounds[] = {1, 4};
  reg.histogram("spf.region", bounds).observe(0);
  reg.histogram("spf.region", bounds).observe(3);
  reg.histogram("spf.region", bounds).observe(9);

  const std::string text = tel::render_prometheus(reg);
  EXPECT_NE(text.find("# TYPE dtr_eval_scenarios counter"), std::string::npos);
  EXPECT_NE(text.find("dtr_eval_scenarios{plane=\"det\"} 40"), std::string::npos);
  EXPECT_NE(text.find("dtr_cache_hits{plane=\"process\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dtr_optimizer_live_phase gauge"), std::string::npos);
  // Cumulative buckets: le=1 has 1, le=4 has 2, +Inf has all 3.
  EXPECT_NE(text.find("dtr_spf_region_bucket{plane=\"det\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dtr_spf_region_bucket{plane=\"det\",le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dtr_spf_region_bucket{plane=\"det\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dtr_spf_region_sum{plane=\"det\"} 12"), std::string::npos);
  EXPECT_NE(text.find("dtr_spf_region_count{plane=\"det\"} 3"), std::string::npos);
}

TEST(ExposerTest, ServesLiveRegistryOverHttp) {
  telemetry::Registry reg;
  reg.counter("scrape.me").add(5);
  tel::MetricsExposer exposer(reg, 0);  // ephemeral port
  ASSERT_GT(exposer.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(exposer.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("dtr_scrape_me{plane=\"det\"} 5"), std::string::npos);
  exposer.stop();  // idempotent with the destructor
}

}  // namespace
