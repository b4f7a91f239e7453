// Tests for the observability subsystem: metrics registry thread safety,
// histogram bucket semantics and quantile error, metric handles, the
// disabled-path no-op guarantee, and the Chrome trace JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dosas::obs {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, LeBucketBoundaries) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 bounds + overflow

  h.observe(0.5);  // <= 1   -> bucket 0
  h.observe(1.0);  // <= 1   -> bucket 0 ("le" semantics: boundary inclusive)
  h.observe(1.5);  // <= 2   -> bucket 1
  h.observe(2.0);  // <= 2   -> bucket 1
  h.observe(3.0);  // <= 4   -> bucket 2
  h.observe(9.0);  // > 4    -> overflow

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);

  const auto s = h.summary();
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.mean, (0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 9.0) / 6.0, 1e-12);
}

TEST(Histogram, ConcurrentObservesKeepTotalCount) {
  // The observe path is lock-free: concurrent samples must still leave
  // count, sum, min, max, every bucket, the quantiles (order-independent)
  // and the exemplar exactly as one thread observing the same samples.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  // Integer-valued samples plus one fraction: every partial sum is exact,
  // so the sum cannot depend on the interleaving.
  auto sample = [](int t, int i) {
    if (t == 3 && i == 17) return 12345.0;  // the unique max
    if (t == 5 && i == 4000) return 0.25;   // the unique min
    return static_cast<double>((t * kPerThread + i) % 100 + 1);
  };
  auto trace_of = [](int t, int i) { return static_cast<std::uint64_t>(t * kPerThread + i + 1); };
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(sample(t, i), trace_of(t, i));
    });
  }
  for (auto& w : workers) w.join();

  Histogram reference;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) reference.observe(sample(t, i), trace_of(t, i));
  }
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_EQ(h.bucket(b), reference.bucket(b)) << "bucket " << b;
    total += h.bucket(b);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto s = h.summary();
  const auto r = reference.summary();
  EXPECT_EQ(s.count, static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.mean, r.mean);
  EXPECT_EQ(s.min, 0.25);
  EXPECT_EQ(s.max, 12345.0);
  EXPECT_EQ(s.p50, r.p50);
  EXPECT_EQ(s.p90, r.p90);
  EXPECT_EQ(s.p99, r.p99);
  EXPECT_EQ(s.exemplar_trace_id, trace_of(3, 17));
}

TEST(Histogram, QuantilesWithinTheBucketErrorOverSixDecades) {
  // Log-uniform samples over [1, 1e6): the estimate of each quantile must
  // sit within kQuantileRelError of the exact nearest-rank sample.
  std::mt19937_64 rng(2012);
  std::uniform_real_distribution<double> decades(0.0, 6.0);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = std::pow(10.0, decades(rng));
  Histogram h;
  for (double x : xs) h.observe(x);
  std::sort(xs.begin(), xs.end());
  auto exact = [&](std::size_t pct) { return xs[(pct * xs.size() + 99) / 100 - 1]; };

  const auto s = h.summary();
  EXPECT_EQ(s.count, xs.size());
  EXPECT_EQ(s.min, xs.front());
  EXPECT_EQ(s.max, xs.back());
  for (auto [pct, est] : {std::pair{50u, s.p50}, std::pair{90u, s.p90}, std::pair{99u, s.p99}}) {
    const double want = exact(pct);
    EXPECT_LE(std::abs(est - want) / want, Histogram::kQuantileRelError)
        << "p" << pct << ": estimate " << est << " vs exact " << want;
  }

  // Zero (below the log range) reads back exactly, as queue depths need.
  Histogram depth;
  for (double d : {0.0, 0.0, 0.0, 5.0}) depth.observe(d);
  EXPECT_EQ(depth.summary().p50, 0.0);
  EXPECT_EQ(depth.summary().p99, 5.0);
}

TEST(P2Quantile, TracksMedianOfShuffledStream) {
  std::vector<double> values(2001);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  std::mt19937 rng(2012);
  std::shuffle(values.begin(), values.end(), rng);

  P2Quantile p50(0.5);
  for (double v : values) p50.add(v);
  EXPECT_EQ(p50.count(), values.size());
  // P² is approximate; the true median is 1000.
  EXPECT_NEAR(p50.value(), 1000.0, 50.0);
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile q(0.5);
  q.add(10.0);
  q.add(30.0);
  q.add(20.0);
  EXPECT_DOUBLE_EQ(q.value(), 20.0);
}

TEST(Registry, FindOrCreateAndSnapshots) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("a.depth").set(7.0);
  reg.histogram("a.lat").observe(0.5);
  EXPECT_EQ(&reg.counter("a.count"), &reg.counter("a.count"));
  EXPECT_TRUE(reg.contains("a.depth"));
  EXPECT_FALSE(reg.contains("missing"));
  EXPECT_EQ(reg.size(), 3u);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("a.depth"), std::string::npos);
  EXPECT_NE(text.find("a.lat"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);  // overflow bucket

  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, DisabledHelpersAreNoOps) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(false);
  count("test_obs.disabled_counter");
  gauge_set("test_obs.disabled_gauge", 1.0);
  observe("test_obs.disabled_hist", 1.0);
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(reg.contains("test_obs.disabled_counter"));
  EXPECT_FALSE(reg.contains("test_obs.disabled_gauge"));
  EXPECT_FALSE(reg.contains("test_obs.disabled_hist"));
}

TEST(Registry, EnabledHelpersRecord) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  count("test_obs.enabled_counter", 2);
  gauge_set("test_obs.enabled_gauge", 4.0);
  observe("test_obs.enabled_hist", 8.0);
  EXPECT_EQ(reg.counter("test_obs.enabled_counter").value(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("test_obs.enabled_gauge").value(), 4.0);
  EXPECT_EQ(reg.histogram("test_obs.enabled_hist").summary().count, 1u);
  reg.set_enabled(false);
}

TEST(Handles, ResolveToTheRegistryMetricOfTheirName) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  CounterHandle counter("test_obs.handle_counter");
  GaugeHandle gauge("test_obs.handle_gauge");
  HistogramHandle hist("test_obs.handle_hist");
  count(counter, 2);
  gauge_set(gauge, 4.0);
  observe(hist, 8.0, 5);
  EXPECT_EQ(&counter.get(), &reg.counter("test_obs.handle_counter"));
  EXPECT_EQ(&gauge.get(), &reg.gauge("test_obs.handle_gauge"));
  EXPECT_EQ(&hist.get(), &reg.histogram("test_obs.handle_hist"));
  EXPECT_EQ(reg.counter("test_obs.handle_counter").value(), 2u);
  EXPECT_EQ(reg.histogram("test_obs.handle_hist").summary().exemplar_trace_id, 5u);

  // A family resolves "<prefix><suffix>", also past its fixed slots.
  HistogramFamily family("test_obs.family.");
  for (int i = 0; i < 20; ++i) {
    const std::string suffix = "k" + std::to_string(i);
    observe(family, suffix, 1.0);
    EXPECT_EQ(&family.get(suffix), &reg.histogram("test_obs.family." + suffix)) << suffix;
  }
  EXPECT_EQ(reg.histogram("test_obs.family.k0").summary().count, 1u);
  EXPECT_EQ(reg.histogram("test_obs.family.k19").summary().count, 1u);
  reg.set_enabled(false);
}

TEST(Handles, DisabledEmissionRegistersNothing) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(false);
  CounterHandle counter("test_obs.disabled_handle_counter");
  GaugeHandle gauge("test_obs.disabled_handle_gauge");
  HistogramHandle hist("test_obs.disabled_handle_hist");
  HistogramFamily family("test_obs.disabled_family.");
  count(counter);
  gauge_set(gauge, 1.0);
  observe(hist, 1.0, 7);
  observe(family, "sum", 1.0);
  EXPECT_FALSE(reg.contains("test_obs.disabled_handle_counter"));
  EXPECT_FALSE(reg.contains("test_obs.disabled_handle_gauge"));
  EXPECT_FALSE(reg.contains("test_obs.disabled_handle_hist"));
  EXPECT_FALSE(reg.contains("test_obs.disabled_family.sum"));
}

TEST(Registry, TextOutputIsDeterministicallySorted) {
  // DST fingerprints embed the full metrics text, so the rendering must be
  // one global lexicographic order over all kinds — not creation order, not
  // per-kind sections whose interleave could drift.
  MetricsRegistry reg;
  reg.counter("z.count").inc();
  reg.gauge("m.depth").set(1.0);
  reg.histogram("a.lat").observe(1.0);
  reg.counter("b.count").inc();

  const std::string text = reg.to_text();
  const auto pa = text.find("a.lat");
  const auto pb = text.find("b.count");
  const auto pm = text.find("m.depth");
  const auto pz = text.find("z.count");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pm, std::string::npos);
  ASSERT_NE(pz, std::string::npos);
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pm);
  EXPECT_LT(pm, pz);
  EXPECT_EQ(text, reg.to_text());  // stable across renders
}

TEST(Histogram, ExemplarTracksTheMaxSample) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stage.e2e_us.sum");
  h.observe(5.0, 42);
  h.observe(9.0, 77);
  h.observe(7.0, 99);
  EXPECT_EQ(h.summary().exemplar_trace_id, 77u);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("exemplar=trace:77"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"exemplar_trace_id\":77"), std::string::npos);
}

TEST(FlightRecorder, RecordSnapshotAndTraceFilteredDump) {
  FlightRecorder fr;
  fr.record(FlightEventKind::kStateTransition, 7, 0, 1, "queued");
  fr.record(FlightEventKind::kRetry, 9, 1, 2, "attempt 2");
  fr.record(FlightEventKind::kDemotion, 7, 0, 1, "knee exceeded");
  EXPECT_EQ(fr.events_recorded(), 3u);

  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kRetry);
  EXPECT_STREQ(events[2].note, "knee exceeded");

  // Trace filter keeps only trace 7's history; the retry drops out.
  const std::string filtered = fr.dump_text(/*only_trace_id=*/7);
  EXPECT_NE(filtered.find("queued"), std::string::npos);
  EXPECT_NE(filtered.find("knee exceeded"), std::string::npos);
  EXPECT_EQ(filtered.find("attempt 2"), std::string::npos);

  // Tail keeps the newest line only.
  const std::string tail = fr.dump_text(0, /*tail=*/1);
  EXPECT_EQ(tail.find("queued"), std::string::npos);
  EXPECT_NE(tail.find("knee exceeded"), std::string::npos);
}

TEST(FlightRecorder, RingWrapKeepsTheNewestEvents) {
  FlightRecorder fr;
  const std::size_t total = FlightRecorder::kSlots + 10;
  for (std::size_t i = 0; i < total; ++i) {
    fr.record(FlightEventKind::kStateTransition, 0, 0, i, "e");
  }
  EXPECT_EQ(fr.events_recorded(), total);
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  EXPECT_EQ(events.front().detail, 10u);  // the 10 oldest were overwritten
  EXPECT_EQ(events.back().detail, total - 1);
}

TEST(FlightRecorder, DumpsAreCappedAndGoToTheSink) {
  FlightRecorder fr;
  fr.record(FlightEventKind::kDeadlineMiss, 3, 0, 0, "watchdog fired");
  int dumps = 0;
  std::string last;
  fr.set_sink([&](const std::string& text) {
    ++dumps;
    last = text;
  });
  for (int i = 0; i < 20; ++i) fr.trigger_dump("test reason", 3);
  fr.set_sink(nullptr);
  EXPECT_EQ(dumps, 8) << "dump cascade must be capped";
  EXPECT_EQ(fr.dumps_triggered(), 20u);
  EXPECT_NE(last.find("test reason"), std::string::npos);
  EXPECT_NE(last.find("(trace 3)"), std::string::npos);
  EXPECT_NE(last.find("watchdog fired"), std::string::npos);
}

TEST(Trace, ChildContextDerivationIsDeterministicAndCollisionResistant) {
  Tracer tracer;
  const TraceContext root = tracer.new_root();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);

  const TraceContext a = root.child("queue");
  const TraceContext b = root.child("kernel");
  EXPECT_EQ(a.trace_id, root.trace_id);
  EXPECT_EQ(a.parent_span_id, root.span_id);
  EXPECT_NE(a.span_id, b.span_id) << "different salts must derive different spans";
  EXPECT_EQ(a.span_id, root.child("queue").span_id) << "derivation must be pure";
}

TEST(Trace, ChromeJsonRoundTrip) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete("kernel:gaussian2d", "kernel", 10.0, 25.0);
  tracer.instant("demote", "ce");
  tracer.counter("queue_depth", 3.0);
  tracer.counter_at("link.util", 0.75, 1.5e6, Tracer::kSimPid);
  EXPECT_EQ(tracer.event_count(), 4u);

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);  // pid metadata
  EXPECT_NE(json.find("kernel:gaussian2d"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // Structurally balanced (no trailing-comma truncation).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '}');

  const std::string path = ::testing::TempDir() + "test_obs_trace.json";
  ASSERT_TRUE(tracer.write(path).is_ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string back(json.size() + 1, '\0');
  back.resize(std::fread(back.data(), 1, back.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(back, json);
}

TEST(Trace, JsonStringsAreEscaped) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("quote\"back\\slash", "cat\n");
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("cat\\n"), std::string::npos);
}

TEST(Trace, DisabledEmissionsAndScopesAreDropped) {
  Tracer tracer;
  tracer.complete("x", "y", 0.0, 1.0);
  tracer.instant("x", "y");
  tracer.counter("x", 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);

  auto& global = Tracer::global();
  global.set_enabled(false);
  const std::size_t before = global.event_count();
  { ScopedTrace scope("test_obs.scope", "test"); }
  EXPECT_EQ(global.event_count(), before);
}

TEST(Trace, ScopedTraceRecordsWhenEnabled) {
  auto& global = Tracer::global();
  global.set_enabled(true);
  const std::size_t before = global.event_count();
  { ScopedTrace scope("test_obs.scope", "test"); }
  EXPECT_EQ(global.event_count(), before + 1);
  const std::string json = global.to_chrome_json();
  EXPECT_NE(json.find("test_obs.scope"), std::string::npos);
  global.set_enabled(false);
  global.clear();
}

}  // namespace
}  // namespace dosas::obs
