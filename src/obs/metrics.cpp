#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/clock.hpp"
#include "obs/trace.hpp"

namespace dosas::obs {

// ---------------------------------------------------------------- Histogram

std::vector<double> Histogram::default_bounds() {
  // Powers of 4 from 1e-3 to ~1.1e9: 21 buckets spanning sub-millisecond
  // latencies, MiB/s rates, byte counts, and 0..1 utilizations. The
  // log-linear quantile buckets (not these) carry the precision; these give
  // the exported shape.
  std::vector<double> b;
  double v = 1e-3;
  for (int i = 0; i < 21; ++i) {
    b.push_back(v);
    v *= 4.0;
  }
  return b;
}

namespace {

constexpr double kQuantileLowest = 0x1p-32;  // 2^Histogram::kMinExp
static_assert(Histogram::kMinExp == -32);

/// Quantile bucket of x. In range, 1 + the log-linear sub-bucket: the
/// octave from the IEEE-754 exponent, the linear sub-bucket from the top 4
/// mantissa bits. Below the range (zero, negatives, NaN) is bucket 0,
/// above it the last bucket.
std::size_t quantile_index(double x) {
  static_assert(Histogram::kSubBuckets == 16, "4 mantissa bits pick the sub-bucket");
  if (!(x >= kQuantileLowest)) return 0;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (exp >= Histogram::kMaxExp) return Histogram::kQuantileBuckets - 1;
  const auto sub = static_cast<std::size_t>((bits >> 48) & 0xf);
  return 1 + static_cast<std::size_t>(exp - Histogram::kMinExp) * Histogram::kSubBuckets + sub;
}

/// Midpoint of in-range bucket i: the estimate for every sample it counts.
double quantile_midpoint(std::size_t i) {
  const std::size_t sub_bucket = i - 1;
  const int exp = static_cast<int>(sub_bucket / Histogram::kSubBuckets) + Histogram::kMinExp;
  const double sub = static_cast<double>(sub_bucket % Histogram::kSubBuckets) + 0.5;
  return std::ldexp(1.0 + sub / Histogram::kSubBuckets, exp);
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(bounds.empty() ? default_bounds() : std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double x, std::uint64_t exemplar_trace_id) {
  // Lower-bound search: first bucket whose upper bound admits x.
  std::size_t i = 0;
  while (i < bounds_.size() && x > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  atomic_min(min_, x);
  atomic_max(max_, x);
  if (exemplar_trace_id != 0) offer_exemplar(x, exemplar_trace_id);
  // Last, with release: a summary() that counts this sample also sees its
  // sum, min and max.
  quantile_buckets_[quantile_index(x)].fetch_add(1, std::memory_order_release);
}

void Histogram::offer_exemplar(double x, std::uint64_t trace_id) {
  // Keep the trace of the worst sample: that is the one a p99 investigation
  // wants to open first. Most samples do not beat it and skip the lock.
  auto beaten = [&] {
    return exemplar_trace_id_.load(std::memory_order_relaxed) == 0 ||
           x >= exemplar_value_.load(std::memory_order_relaxed);
  };
  if (!beaten()) return;
  std::lock_guard lock(exemplar_mu_);
  if (!beaten()) return;
  exemplar_value_.store(x, std::memory_order_relaxed);
  exemplar_trace_id_.store(trace_id, std::memory_order_relaxed);
}

Histogram::Summary Histogram::summary() const {
  // One snapshot of the sub-buckets gives the count and the quantiles.
  std::array<std::uint64_t, kQuantileBuckets> snap;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kQuantileBuckets; ++i) {
    snap[i] = quantile_buckets_[i].load(std::memory_order_acquire);
    total += snap[i];
  }
  Summary s;
  s.count = total;
  if (total == 0) return s;
  s.mean = sum_.load(std::memory_order_relaxed) / static_cast<double>(total);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.exemplar_trace_id = exemplar_trace_id_.load(std::memory_order_relaxed);

  // Nearest-rank quantiles.
  auto at_percent = [&](std::uint64_t pct) {
    const std::uint64_t rank = std::max<std::uint64_t>(1, (pct * total + 99) / 100);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (i + 1 < kQuantileBuckets && seen + snap[i] < rank) seen += snap[i++];
    if (i == 0) return s.min;
    if (i + 1 == kQuantileBuckets) return s.max;
    return std::min(std::max(quantile_midpoint(i), s.min), s.max);
  };
  s.p50 = at_percent(50);
  s.p90 = at_percent(90);
  s.p99 = at_percent(99);
  return s;
}

// --------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

bool MetricsRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard lock(mu_);
  // One globally name-sorted listing (not grouped by kind): a metric keeps
  // its line position when its neighbours change kind, so snapshots diff
  // cleanly and the DST bit-identical fingerprints stay stable.
  std::map<std::string, std::string> lines;
  for (const auto& [name, c] : counters_) {
    std::ostringstream line;
    line << "counter  " << name << " = " << c->value() << "\n";
    lines[name] = line.str();
  }
  for (const auto& [name, g] : gauges_) {
    std::ostringstream line;
    line << "gauge    " << name << " = " << g->value() << "\n";
    lines[name] = line.str();
  }
  for (const auto& [name, h] : histograms_) {
    const auto s = h->summary();
    std::ostringstream line;
    line << "hist     " << name << "  count=" << s.count << " mean=" << s.mean
         << " min=" << s.min << " max=" << s.max << " p50=" << s.p50 << " p90=" << s.p90
         << " p99=" << s.p99;
    if (s.exemplar_trace_id != 0) line << " exemplar=trace:" << s.exemplar_trace_id;
    line << "\n";
    lines[name] = line.str();
  }
  std::ostringstream out;
  for (const auto& [name, line] : lines) out << line;
  return out.str();
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    out << ':' << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    out << ':' << g->value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    const auto s = h->summary();
    out << ":{\"count\":" << s.count << ",\"mean\":" << s.mean << ",\"min\":" << s.min
        << ",\"max\":" << s.max << ",\"p50\":" << s.p50 << ",\"p90\":" << s.p90
        << ",\"p99\":" << s.p99;
    if (s.exemplar_trace_id != 0) out << ",\"exemplar_trace_id\":" << s.exemplar_trace_id;
    out << ",\"buckets\":[";
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      if (i != 0) out << ',';
      out << "{\"le\":";
      if (i < h->bucket_count() - 1) {
        out << h->bound(i);
      } else {
        out << "\"+inf\"";
      }
      out << ",\"count\":" << h->bucket(i) << '}';
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// --------------------------------------------------------- HistogramFamily

Histogram& HistogramFamily::add(std::string_view suffix) {
  std::lock_guard lock(mu_);
  const std::size_t n = size_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (slots_[i].suffix == suffix) return *slots_[i].histogram;
  }
  std::string name = prefix_;
  name += suffix;
  Histogram& h = MetricsRegistry::global().histogram(name);
  if (n < kSlots) {
    // Published by the release store: get() only scans slots [0, size_).
    slots_[n] = Slot{std::string(suffix), &h};
    size_.store(n + 1, std::memory_order_release);
  }
  return h;
}

// ------------------------------------------------------------ free helpers

void count(const std::string& name, std::uint64_t n) {
  auto& r = MetricsRegistry::global();
  if (!r.enabled()) return;
  r.counter(name).inc(n);
}

void gauge_set(const std::string& name, double v) {
  auto& r = MetricsRegistry::global();
  if (!r.enabled()) return;
  r.gauge(name).set(v);
}

void observe(const std::string& name, double v, std::uint64_t exemplar_trace_id) {
  auto& r = MetricsRegistry::global();
  if (!r.enabled()) return;
  r.histogram(name).observe(v, exemplar_trace_id);
}

double now_us() { return clock().now() * 1e6; }

namespace {

void dump_at_exit() {
  const char* trace_out = std::getenv("DOSAS_TRACE_OUT");
  if (trace_out != nullptr && Tracer::global().event_count() > 0) {
    Status st = Tracer::global().write(trace_out);
    if (st.is_ok()) {
      std::fprintf(stderr, "[obs] wrote %zu trace event(s) to %s\n",
                   Tracer::global().event_count(), trace_out);
    } else {
      std::fprintf(stderr, "[obs] %s\n", st.to_string().c_str());
    }
  }
  if (std::getenv("DOSAS_METRICS") != nullptr) {
    const std::string text = MetricsRegistry::global().to_text();
    std::fputs("\n-- metrics snapshot --\n", stdout);
    std::fputs(text.c_str(), stdout);
  }
}

}  // namespace

void init_from_env() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  bool dump = false;
  if (std::getenv("DOSAS_METRICS") != nullptr) {
    MetricsRegistry::global().set_enabled(true);
    dump = true;
  }
  if (std::getenv("DOSAS_TRACE_OUT") != nullptr) {
    Tracer::global().set_enabled(true);
    dump = true;
  }
  if (dump) std::atexit(dump_at_exit);
}

}  // namespace dosas::obs
