// metrics.hpp — process-wide metrics registry: named counters, gauges, and
// fixed-bucket histograms, thread-safe and near-zero-cost while disabled.
//
// The paper's whole argument rests on *seeing* contention (Figs. 2/4/5: AS
// collapses past ~4 concurrent active I/Os per node), and the Contention
// Estimator's demote/offload decisions are only as good as the utilization
// signals feeding them. This registry is the runtime feedback surface: the
// storage server, CE, optimizer, client, and simulator publish queue
// depths, demotion/interrupt counts, per-kernel throughput, solver
// latencies, and link utilization here (docs/OBSERVABILITY.md catalogues
// every name).
//
// Cost discipline: the registry is DISABLED by default. Instrumented hot
// paths gate on `obs::metrics_enabled()` (one relaxed atomic load) before
// building names or reading clocks, so tier-1 timings are unaffected. When
// enabled, per-request paths emit through handles (CounterHandle,
// HistogramHandle, MetricFamily, ...) that a component resolves once, so an
// emission is a relaxed atomic update with no name building and no lock;
// the name-keyed helpers at the bottom take the registry mutex and are for
// cold paths only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace dosas::obs {

/// Monotonic event counter. Thread-safe; relaxed ordering (metrics never
/// synchronize program state).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value-wins instantaneous measurement (queue depth, utilization).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with summary statistics, lock-free on the
/// observe path. Buckets use Prometheus-style "le" semantics: a sample x
/// lands in the first bucket i with x <= bound(i); samples above the last
/// bound land in the implicit overflow bucket. Sum, min and max are exact
/// atomics. p50/p90/p99 come from a second, fixed log-linear bucket array
/// (kSubBuckets linear sub-buckets per power of two over
/// [2^kMinExp, 2^kMaxExp), about 8 KiB), whose total is the count: each
/// estimate is the midpoint of the sub-bucket holding the nearest-rank
/// sample, clamped to [min, max], so it is within kQuantileRelError of that
/// sample. Samples below the range (zero and negatives included) share one
/// bucket estimated as min, samples above it one estimated as max.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -32;  ///< 2^-32 ~ 2.3e-10
  static constexpr int kMaxExp = 32;   ///< 2^32 ~ 4.3e9
  /// In-range sub-buckets plus one below and one above the range.
  static constexpr std::size_t kQuantileBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;
  /// Worst-case relative error of p50/p90/p99 against the nearest-rank
  /// sample, for samples inside the range: half a sub-bucket over its
  /// lower edge.
  static constexpr double kQuantileRelError = 0.5 / kSubBuckets;

  /// `bounds` must be strictly ascending upper bounds; empty selects the
  /// registry-wide default (powers of 4 from 1e-3, wide enough for µs
  /// latencies, MiB/s rates, and 0..1 utilizations alike).
  explicit Histogram(std::vector<double> bounds = {});

  /// Observe `x`. A non-zero `exemplar_trace_id` is an exemplar: the
  /// histogram remembers the trace id of the largest such sample seen so
  /// far, so a p99 outlier in a latency histogram is one lookup away from
  /// its causal trace (docs/OBSERVABILITY.md "Exemplars").
  void observe(double x, std::uint64_t exemplar_trace_id = 0);

  std::size_t bucket_count() const { return bounds_.size() + 1; }  ///< incl. overflow
  double bound(std::size_t i) const { return bounds_[i]; }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  struct Summary {
    std::size_t count = 0;
    double mean = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
    std::uint64_t exemplar_trace_id = 0;  ///< trace of the max sample (0 = none)
  };
  Summary summary() const;

  static std::vector<double> default_bounds();

 private:
  void offer_exemplar(double x, std::uint64_t trace_id);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kQuantileBuckets> quantile_buckets_{};
  // The exemplar's (value, trace id) pair changes together under this
  // mutex; it is taken only by a sample that ties or beats the current
  // exemplar, which a lock-free pre-check on exemplar_value_ filters.
  std::mutex exemplar_mu_;
  std::atomic<double> exemplar_value_{0.0};
  std::atomic<std::uint64_t> exemplar_trace_id_{0};
};

/// Named metric store. Handles returned by counter()/gauge()/histogram()
/// stay valid for the registry's lifetime (metrics are never deallocated
/// except by clear(), which callers holding handles must not race with).
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented subsystem publishes to.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create. The first histogram() call for a name fixes its
  /// bucket bounds; later calls ignore `bounds`.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Names of every registered histogram, sorted (report generators use
  /// this to build per-stage latency tables without knowing the names).
  std::vector<std::string> histogram_names() const;

  /// Human-readable snapshot: one metric per line, globally sorted by name
  /// regardless of kind, so snapshots diff cleanly across runs.
  std::string to_text() const;
  /// JSON snapshot: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string to_json() const;

  /// Drop every metric. Invalidates outstanding handles — tests only.
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

inline bool metrics_enabled() { return MetricsRegistry::global().enabled(); }

// ---- handles: the form per-request call sites use ----
//
// A handle names one metric of the global registry and resolves it on its
// first *enabled* emission, then keeps the pointer: later emissions are a
// relaxed atomic update on the metric itself, with no name building and no
// registry lock. Resolving lazily keeps the registry's set of names exactly
// what the name-keyed helpers would create. Handles live in the component
// that emits (server, CE, optimizer, transport, client), never in a static
// or thread_local cache: MetricsRegistry::clear() frees every metric, so a
// handle must not outlive the clear() that follows its owner's lifetime.

/// One named metric of the global registry (Counter, Gauge or Histogram).
template <class M>
class MetricHandle {
 public:
  explicit MetricHandle(std::string name) : name_(std::move(name)) {}
  MetricHandle(const MetricHandle&) = delete;
  MetricHandle& operator=(const MetricHandle&) = delete;

  /// The metric, found or created in the global registry on first use.
  M& get() {
    M* m = metric_.load(std::memory_order_acquire);
    if (m == nullptr) {
      // Racing resolvers find the same registry object, so either store wins.
      m = &resolve(name_);
      metric_.store(m, std::memory_order_release);
    }
    return *m;
  }

 private:
  static M& resolve(const std::string& name) {
    auto& r = MetricsRegistry::global();
    if constexpr (std::is_same_v<M, Counter>) {
      return r.counter(name);
    } else if constexpr (std::is_same_v<M, Gauge>) {
      return r.gauge(name);
    } else {
      static_assert(std::is_same_v<M, Histogram>);
      return r.histogram(name);
    }
  }

  const std::string name_;
  std::atomic<M*> metric_{nullptr};
};

using CounterHandle = MetricHandle<Counter>;
using GaugeHandle = MetricHandle<Gauge>;
using HistogramHandle = MetricHandle<Histogram>;

/// Histogram handles for one family "<prefix><suffix>" over a small open
/// set of suffixes (request classes, kernel names). A suffix seen before is
/// found by string_view comparison without allocating or locking; the
/// first emission of a new suffix takes the family's own mutex. Past
/// kSlots distinct suffixes, lookups fall back to the registry by name.
class HistogramFamily {
 public:
  explicit HistogramFamily(std::string prefix) : prefix_(std::move(prefix)) {}
  HistogramFamily(const HistogramFamily&) = delete;
  HistogramFamily& operator=(const HistogramFamily&) = delete;

  Histogram& get(std::string_view suffix) {
    const std::size_t n = size_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i].suffix == suffix) return *slots_[i].histogram;
    }
    return add(suffix);
  }

 private:
  Histogram& add(std::string_view suffix);

  static constexpr std::size_t kSlots = 16;
  struct Slot {
    std::string suffix;
    Histogram* histogram = nullptr;
  };
  const std::string prefix_;
  std::array<Slot, kSlots> slots_{};
  std::atomic<std::size_t> size_{0};
  std::mutex mu_;  ///< serializes add(); get() reads published slots only
};

inline void count(CounterHandle& h, std::uint64_t n = 1) {
  if (metrics_enabled()) h.get().inc(n);
}
inline void gauge_set(GaugeHandle& h, double v) {
  if (metrics_enabled()) h.get().set(v);
}
/// Histogram observe through a handle; a non-zero `exemplar_trace_id`
/// carries an exemplar.
inline void observe(HistogramHandle& h, double v, std::uint64_t exemplar_trace_id = 0) {
  if (metrics_enabled()) h.get().observe(v, exemplar_trace_id);
}
inline void observe(HistogramFamily& f, std::string_view suffix, double v,
                    std::uint64_t exemplar_trace_id = 0) {
  if (metrics_enabled()) f.get(suffix).observe(v, exemplar_trace_id);
}

// ---- name-keyed helpers: for cold paths (faults, hedges, breaker trips) ----
//
// All of these are complete no-ops (no lookup, no allocation) while the
// global registry is disabled. Enabled, each call builds its name and takes
// the registry-wide mutex for the lookup: per-request paths use the handles
// above instead.

void count(const std::string& name, std::uint64_t n = 1);
void gauge_set(const std::string& name, double v);
/// Histogram observe; a non-zero `exemplar_trace_id` carries an exemplar.
void observe(const std::string& name, double v, std::uint64_t exemplar_trace_id = 0);

/// Wall-clock microseconds on the steady clock (for enabled-path timing).
double now_us();

/// Read DOSAS_METRICS / DOSAS_TRACE_OUT from the environment, enable the
/// corresponding collectors, and register an atexit dump (metrics text
/// snapshot to stdout, Chrome trace JSON to the DOSAS_TRACE_OUT path).
/// Idempotent; used by bench_common.hpp so every bench can emit a trace.
void init_from_env();

}  // namespace dosas::obs
