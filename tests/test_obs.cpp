// Telemetry layer tests: span nesting and thread attribution, metric
// correctness under concurrent updates (run these under the `tsan` preset
// too), Chrome-trace export shape, and the HGP_OBS compile-out contract.
//
// The whole file compiles in both HGP_OBS modes: sections that observe the
// *effects* of the instrumentation macros are gated on HGP_OBS_ENABLED,
// everything else (classes, exporters, SolveTelemetry) must work either
// way because the hgp_obs library always builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "obs/event_journal.hpp"
#include "obs/json_escape.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/solver.hpp"
#include "util/thread_id.hpp"

namespace hgp {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceSpan;

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// TraceBuffer / TraceSpan

TEST(Trace, DisabledBufferRecordsNothing) {
  TraceBuffer buf;  // disabled by default
  {
    TraceSpan s("ignored", obs::kNoArg, &buf);
  }
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Trace, NestedSpansRecordDepthAndOrdering) {
  TraceBuffer buf;
  buf.set_enabled(true);
  {
    TraceSpan outer("outer", obs::kNoArg, &buf);
    {
      TraceSpan mid("mid", 7, &buf);
      TraceSpan inner("inner", obs::kNoArg, &buf);
    }
  }
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // snapshot() orders outer spans before the spans they contain.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[1].arg, 7);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2u);
  // Containment: every child's interval lies inside its parent's.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
  // All on this thread.
  EXPECT_EQ(events[0].tid, this_thread_id());
  EXPECT_EQ(events[1].tid, events[0].tid);
}

TEST(Trace, SpansAcrossThreadPoolWorkersKeepPerThreadNesting) {
  TraceBuffer buf;
  buf.set_enabled(true);
  constexpr int kWorkers = 4;
  {
    ThreadPool pool(kWorkers);
    // A rendezvous pins one task per worker, so the spans are guaranteed to
    // come from kWorkers distinct threads recording concurrently.
    std::atomic<int> arrived{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < kWorkers; ++i) {
      futures.push_back(pool.submit([&, i] {
        TraceSpan task("worker.task", i, &buf);
        arrived.fetch_add(1);
        while (arrived.load() < kWorkers) std::this_thread::yield();
        TraceSpan nested("worker.nested", obs::kNoArg, &buf);
      }));
    }
    for (auto& f : futures) f.get();
  }
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u * kWorkers);
  std::set<std::uint32_t> tids;
  std::set<std::int64_t> args;
  for (const TraceEvent& e : events) {
    tids.insert(e.tid);
    if (e.arg != obs::kNoArg) args.insert(e.arg);
    // Depth is per-thread: a task span sits at 0, its nested span at 1,
    // regardless of what other workers are doing concurrently.
    if (std::string(e.name) == "worker.task") {
      EXPECT_EQ(e.depth, 0u);
    } else {
      EXPECT_EQ(e.depth, 1u);
    }
  }
  EXPECT_EQ(args.size(), static_cast<std::size_t>(kWorkers));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kWorkers));
}

TEST(Trace, ClearDropsEventsAndKeepsRecording) {
  TraceBuffer buf;
  buf.set_enabled(true);
  { TraceSpan s("a", obs::kNoArg, &buf); }
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  { TraceSpan s("b", obs::kNoArg, &buf); }
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  TraceBuffer buf;
  buf.set_enabled(true);
  {
    TraceSpan outer("solve", 128, &buf);
    TraceSpan inner("dp.solve", obs::kNoArg, &buf);
  }
  std::ostringstream os;
  buf.write_chrome_json(os);
  const std::string json = os.str();
  // Structural checks; CI additionally runs `python3 -m json.tool` on the
  // CLI's --trace output (telemetry smoke job).
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"solve\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"dp.solve\""), 1u);
  // The span arg is exported for "solve" and omitted for the arg-less one.
  EXPECT_EQ(count_occurrences(json, "\"arg\":128"), 1u);
  EXPECT_EQ(count_occurrences(json, "\"arg\":"), 1u);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the root
}

TEST(Trace, SummaryAggregatesPerName) {
  TraceBuffer buf;
  buf.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    TraceSpan s("repeat", obs::kNoArg, &buf);
  }
  { TraceSpan s("once", obs::kNoArg, &buf); }
  const Table summary = buf.summary();
  EXPECT_EQ(summary.row_count(), 2u);
  const std::string text = summary.to_string();
  EXPECT_NE(text.find("repeat"), std::string::npos);
  EXPECT_NE(text.find("once"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, CounterIsExactUnderConcurrentIncrements) {
  MetricsRegistry reg;
  Counter& ctr = reg.counter("test.concurrent");
  constexpr std::size_t kIters = 20000;
  {
    ThreadPool pool(8);
    parallel_for(pool, 0, kIters, [&](std::size_t) { ctr.add(1); });
  }
  EXPECT_EQ(ctr.value(), kIters);
  EXPECT_EQ(reg.counter_value("test.concurrent"), kIters);
  EXPECT_EQ(reg.counter_value("test.never_registered"), 0u);
}

TEST(Metrics, RegistryHandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same.name");
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(Metrics, GaugeTracksValueAndHighWaterMark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("test.depth");
  g.add(+3);
  g.add(+2);
  g.add(-4);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max_value(), 5);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(g.max_value(), 5);  // max is sticky
}

TEST(Metrics, HistogramBucketsAndSumAreExactUnderConcurrency) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.latency", {1.0, 2.0, 4.0});
  constexpr std::size_t kIters = 4000;  // multiple of 4
  {
    ThreadPool pool(8);
    parallel_for(pool, 0, kIters, [&](std::size_t i) {
      // Cycle deterministically through the buckets: 1, 2, 4, 8(overflow).
      h.observe(static_cast<double>(std::size_t{1} << (i % 4)));
    });
  }
  EXPECT_EQ(h.count(), kIters);
  // Integer-valued observations sum exactly in doubles (≤ 15000 << 2^53).
  EXPECT_EQ(h.sum(), static_cast<double>(kIters / 4 * (1 + 2 + 4 + 8)));
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  for (std::uint64_t b : buckets) EXPECT_EQ(b, kIters / 4);
}

TEST(Metrics, ResetZeroesWithoutInvalidatingReferences) {
  MetricsRegistry reg;
  Counter& ctr = reg.counter("test.reset");
  Gauge& g = reg.gauge("test.reset_gauge");
  Histogram& h = reg.histogram("test.reset_hist", {10.0});
  ctr.add(5);
  g.set(9);
  h.observe(3.0);
  reg.reset_values();
  EXPECT_EQ(ctr.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  ctr.add(1);
  EXPECT_EQ(reg.counter_value("test.reset"), 1u);
}

TEST(Metrics, JsonExportContainsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("c.one").add(3);
  reg.gauge("g.two").set(4);
  reg.histogram("h.three", {1.0, 10.0}).observe(5.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g.two\""), std::string::npos);
  EXPECT_NE(json.find("\"h.three\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
}

// ---------------------------------------------------------------------------
// JSON escaping (shared by the trace/metrics/flight-recorder exporters)

TEST(JsonEscape, HostileNamesRoundTripSafely) {
  // Quotes, backslashes, control characters and embedded newlines are the
  // payloads that break naive exporters; metric/span names are caller
  // strings, so the escaper must neutralize all of them.
  EXPECT_EQ(obs::json_escaped("plain.name"), "plain.name");
  EXPECT_EQ(obs::json_escaped("quote\"inside"), "quote\\\"inside");
  EXPECT_EQ(obs::json_escaped("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::json_escaped("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::json_escaped("cr\rtab\t"), "cr\\rtab\\t");
  EXPECT_EQ(obs::json_escaped(std::string("nul\0byte", 8)),
            "nul\\u0000byte");
  EXPECT_EQ(obs::json_escaped("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(obs::json_escaped("bell\bform\f"), "bell\\bform\\f");
  // UTF-8 multibyte sequences pass through untouched (bytes >= 0x20).
  EXPECT_EQ(obs::json_escaped("gr\xc3\xa4ph"), "gr\xc3\xa4ph");
}

TEST(JsonEscape, StreamAndStringVariantsAgree) {
  const std::string hostile = "a\"b\\c\nd\x02";
  std::ostringstream os;
  obs::write_json_escaped(os, hostile);
  EXPECT_EQ(os.str(), obs::json_escaped(hostile));
}

TEST(JsonEscape, MetricsExportEscapesHostileNames) {
  MetricsRegistry reg;
  reg.counter("evil\"name\n").add(1);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("evil\\\"name\\n"), std::string::npos);
  EXPECT_EQ(json.find("evil\"name\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram quantiles and the Prometheus exposition

TEST(Metrics, HistogramQuantileInterpolatesWithinBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.quantile", {10.0, 20.0, 40.0});
  // 100 observations in [0, 10]: p50 lands mid-bucket by interpolation.
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const auto snaps = reg.histogram_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  const obs::HistogramSnapshot& s = snaps[0];
  EXPECT_EQ(s.name, "test.quantile");
  EXPECT_EQ(s.count, 100u);
  // All mass in the first bucket: quantiles interpolate inside [0, 10],
  // clamped to the observed [5, 5].
  EXPECT_NEAR(obs::histogram_quantile(s, 0.5), 5.0, 1e-9);
  EXPECT_NEAR(obs::histogram_quantile(s, 1.0), 5.0, 1e-9);
  EXPECT_NEAR(obs::histogram_quantile(s, 0.1), 5.0, 1e-9);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
}

TEST(Metrics, HistogramQuantileLiesWithinTheObservedRange) {
  // Four pool tasks of 1.3–1.6 s once read p50 5,500 ms off decade
  // buckets.  Whatever the buckets, every quantile of recorded values lies
  // within their [min, max].
  MetricsRegistry reg;
  Histogram& decades = reg.histogram(
      "test.decades", {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  for (const double ms : {1300.0, 1400.0, 1500.0, 1600.0}) decades.observe(ms);
  std::vector<double> tops;  // 1-2-5 per decade
  for (const double decade : {0.01, 0.1, 1.0, 10.0, 100.0}) {
    for (const double step : {1.0, 2.0, 5.0}) tops.push_back(step * decade);
  }
  Rng rng(9);
  for (int round = 0; round < 50; ++round) {
    Histogram& h = reg.histogram("test.range." + std::to_string(round), tops);
    const double base = std::pow(10.0, rng.next_double(-3.0, 4.0));
    const double spread = rng.next_double(1.0, 3.0);
    const int count = 1 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < count; ++i) {
      h.observe(base * rng.next_double(1.0, spread));
    }
  }
  for (const obs::HistogramSnapshot& s : reg.histogram_snapshots()) {
    SCOPED_TRACE(s.name);
    ASSERT_LE(s.min, s.max);
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double v = obs::histogram_quantile(s, q);
      EXPECT_GE(v, s.min) << "q " << q;
      EXPECT_LE(v, s.max) << "q " << q;
    }
  }
  const auto snaps = reg.histogram_snapshots();
  const auto it = std::find_if(snaps.begin(), snaps.end(), [](const auto& s) {
    return s.name == "test.decades";
  });
  ASSERT_NE(it, snaps.end());
  EXPECT_NEAR(obs::histogram_quantile(*it, 0.5), 1600.0, 1e-9);
}

TEST(Metrics, HistogramQuantileHandlesEmptyAndOverflow) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.overflow", {1.0, 2.0});
  const auto empty = reg.histogram_snapshots();
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(std::isnan(obs::histogram_quantile(empty[0], 0.5)));
  // All mass beyond the last finite bound: the overflow bucket ends at the
  // largest observation, and the estimate stays within [100, 200].
  h.observe(100.0);
  h.observe(200.0);
  const auto snaps = reg.histogram_snapshots();
  EXPECT_NEAR(obs::histogram_quantile(snaps[0], 0.99), 2.0 + 198.0 * 0.99,
              1e-9);
}

TEST(Metrics, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.counter("dp.merge_operations").add(7);
  reg.gauge("service.queue_depth").set(3);
  reg.histogram("pool.task_run_ms", {1.0, 8.0}).observe(0.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  // Counter: sanitized name, TYPE line, value.
  EXPECT_NE(text.find("# TYPE hgp_dp_merge_operations counter"),
            std::string::npos);
  EXPECT_NE(text.find("hgp_dp_merge_operations 7"), std::string::npos);
  // Gauge: value plus the sticky high-water series.
  EXPECT_NE(text.find("hgp_service_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("hgp_service_queue_depth_max 3"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("hgp_pool_task_run_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hgp_pool_task_run_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("hgp_pool_task_run_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("hgp_pool_task_run_ms_sum 0.5"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("hgp_", 0), 0u) << line;
  }
}

// ---------------------------------------------------------------------------
// Event journal

TEST(EventJournal, RecordsAndSnapshotsTypedEvents) {
  obs::EventJournal journal;
  journal.record(obs::EventKind::kSubmit, 42, 0, 0, 0);
  journal.record(obs::EventKind::kAttemptStart, 42, 1, 8, 0);
  journal.record(obs::EventKind::kRetry, 42, 1, 1,
                 static_cast<std::uint8_t>(StatusCode::kInternal));
  const std::vector<obs::JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(journal.recorded(), 3u);
  // Snapshot is time-ordered; all three came from this thread in order.
  EXPECT_EQ(events[0].kind, obs::EventKind::kSubmit);
  EXPECT_EQ(events[0].request_id, 42u);
  EXPECT_EQ(events[1].kind, obs::EventKind::kAttemptStart);
  EXPECT_EQ(events[1].arg, 8);
  EXPECT_EQ(events[1].attempt, 1u);
  EXPECT_EQ(events[2].status,
            static_cast<std::uint8_t>(StatusCode::kInternal));
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
}

TEST(EventJournal, RingOverwriteKeepsTheTail) {
  obs::EventJournal journal;
  const std::size_t total = obs::EventJournal::kRingCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    journal.record(obs::EventKind::kCheckpointRecord, 1, 1,
                   static_cast<std::int64_t>(i), 0);
  }
  const std::vector<obs::JournalEvent> events = journal.snapshot();
  // One thread → one ring: exactly kRingCapacity retained, and they are
  // the *newest* events.  (Snapshot order ties on equal timestamps, so
  // compare the retained arg range, not positions.)
  ASSERT_EQ(events.size(), obs::EventJournal::kRingCapacity);
  EXPECT_EQ(journal.recorded(), total);
  std::int64_t min_arg = events.front().arg;
  std::int64_t max_arg = events.front().arg;
  for (const obs::JournalEvent& e : events) {
    min_arg = std::min(min_arg, e.arg);
    max_arg = std::max(max_arg, e.arg);
  }
  EXPECT_EQ(min_arg, static_cast<std::int64_t>(100));
  EXPECT_EQ(max_arg, static_cast<std::int64_t>(total - 1));
}

TEST(EventJournal, ClearEmptiesEveryRing) {
  obs::EventJournal journal;
  journal.record(obs::EventKind::kSubmit, 1, 0, 0, 0);
  journal.clear();
  EXPECT_TRUE(journal.snapshot().empty());
  journal.record(obs::EventKind::kAdmit, 2, 0, 0, 0);
  ASSERT_EQ(journal.snapshot().size(), 1u);
  EXPECT_EQ(journal.snapshot()[0].kind, obs::EventKind::kAdmit);
}

TEST(EventJournal, SignalSafeCopyMatchesSnapshotContent) {
  obs::EventJournal journal;
  for (int i = 0; i < 10; ++i) {
    journal.record(obs::EventKind::kBackoff, 7, 2, i, 0);
  }
  obs::JournalEvent out[16];
  const std::size_t n = journal.copy_events_signal_safe(out, 16);
  ASSERT_EQ(n, 10u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].kind, obs::EventKind::kBackoff);
    EXPECT_EQ(out[i].request_id, 7u);
  }
}

TEST(EventJournal, KindNamesAreStable) {
  EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kSubmit), "submit");
  EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kAttemptStart),
               "attempt_start");
  EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kWatchdogCancel),
               "watchdog_cancel");
  EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kFallbackStage),
               "fallback_stage");
  // The numeric values are a dump-format contract.
  EXPECT_EQ(static_cast<int>(obs::EventKind::kSubmit), 0);
  EXPECT_EQ(static_cast<int>(obs::EventKind::kFallbackStage), 13);
}

TEST(EventJournal, RequestScopeNestsAndRestores) {
  EXPECT_EQ(obs::RequestScope::current_request_id(), 0u);
  {
    obs::RequestScope outer(5, 1);
    EXPECT_EQ(obs::RequestScope::current_request_id(), 5u);
    EXPECT_EQ(obs::RequestScope::current_attempt(), 1u);
    {
      obs::RequestScope inner(6, 2);
      EXPECT_EQ(obs::RequestScope::current_request_id(), 6u);
    }
    EXPECT_EQ(obs::RequestScope::current_request_id(), 5u);
  }
  EXPECT_EQ(obs::RequestScope::current_request_id(), 0u);
}

TEST(EventJournal, LibraryRequestIdsAreDisjointFromServiceIds) {
  const std::uint64_t a = obs::next_library_request_id();
  const std::uint64_t b = obs::next_library_request_id();
  EXPECT_NE(a, b);
  // Service ids are dense from 0; library ids live in a disjoint range.
  EXPECT_GE(a, std::uint64_t{1} << 32);
}

#if HGP_OBS_ENABLED
TEST(EventJournal, JournalMacrosRecordIntoTheGlobalJournal) {
  obs::EventJournal::global().clear();
  HGP_JOURNAL(kSubmit, 9, 0, 0, 0);
  {
    HGP_REQUEST_SCOPE(9, 3);
    HGP_JOURNAL_SCOPED(kFallbackStage, obs::kFallbackStageGreedy, 0);
  }
  const auto events = obs::EventJournal::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kSubmit);
  EXPECT_EQ(events[1].kind, obs::EventKind::kFallbackStage);
  EXPECT_EQ(events[1].request_id, 9u);   // inherited from the scope
  EXPECT_EQ(events[1].attempt, 3u);
  EXPECT_EQ(events[1].arg, obs::kFallbackStageGreedy);
  obs::EventJournal::global().clear();
}
#else
TEST(EventJournal, JournalMacrosCompileOutEntirely) {
  obs::EventJournal::global().clear();
  HGP_JOURNAL(kSubmit, 9, 0, 0, 0);
  HGP_REQUEST_SCOPE(9, 3);
  HGP_JOURNAL_SCOPED(kFallbackStage, 2, 0);
  EXPECT_TRUE(obs::EventJournal::global().snapshot().empty());
  EXPECT_EQ(obs::RequestScope::current_request_id(), 0u);
}
#endif

// ---------------------------------------------------------------------------
// Macro layer and the HGP_OBS knob

TEST(ObsMacros, CompileOutContractMatchesBuildMode) {
  TraceBuffer& buf = TraceBuffer::global();
  buf.set_enabled(true);
  buf.clear();
  const std::uint64_t before =
      MetricsRegistry::global().counter_value("test.macro_counter");
  {
    HGP_TRACE_SPAN("macro.span");
    HGP_COUNTER_ADD("test.macro_counter", 2);
  }
  const std::uint64_t after =
      MetricsRegistry::global().counter_value("test.macro_counter");
  buf.set_enabled(false);
#if HGP_OBS_ENABLED
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(after - before, 2u);
#else
  // With HGP_OBS=OFF every macro collapses to a no-op: nothing recorded,
  // nothing registered, arguments not even evaluated.
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(after, 0u);
  EXPECT_EQ(before, 0u);
#endif
  buf.clear();
}

TEST(ObsMacros, DisabledGlobalBufferMakesSpansInert) {
  TraceBuffer& buf = TraceBuffer::global();
  buf.set_enabled(false);
  buf.clear();
  {
    HGP_TRACE_SPAN("macro.inert");
  }
  EXPECT_EQ(buf.size(), 0u);
}

// ---------------------------------------------------------------------------
// SolveTelemetry surface (filled with or without HGP_OBS)

TEST(Telemetry, SolveHgpFillsPhaseTimingsAndDpTotals) {
  Rng rng(11);
  Graph g = gen::planted_partition(16, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / 16.0);
  const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});

  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 5;
  const HgpResult r = solve_hgp(g, h, opt);

  const SolveTelemetry& tm = r.telemetry;
  EXPECT_EQ(tm.trees_attempted, 3);
  EXPECT_EQ(tm.trees_succeeded, 3);
  EXPECT_GT(tm.total_ms, 0.0);
  EXPECT_GE(tm.total_ms, tm.tree_solve_ms);  // the stage is in the total
  // Without a pool the attempts run one after another, so the builds they
  // contain sum to no more than the attempt stage.
  EXPECT_LE(tm.forest_build_ms, tm.tree_solve_ms);
  EXPECT_EQ(tm.fallback_ms, 0.0);  // primary pipeline won
  EXPECT_GT(tm.dp_signatures, 0u);
  EXPECT_GT(tm.dp_feasible_states, 0u);
  EXPECT_GT(tm.dp_merge_operations, 0u);
  // The winner's stats are a subset of the summed telemetry.
  EXPECT_LE(r.stats.merge_operations, tm.dp_merge_operations);
}

}  // namespace
}  // namespace hgp
