#include "obs/trace.hpp"

#include <cstdio>
#include <sstream>
#include <thread>

#include "common/clock.hpp"

namespace dosas::obs {

namespace {

/// Small dense thread ids for Chrome's tid field (hash-of-thread-id would
/// scatter lanes unreadably).
std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

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

/// splitmix64 finalizer — cheap, well-mixed 64-bit hash step.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

TraceContext TraceContext::child(const std::string& salt) const {
  TraceContext c;
  c.trace_id = trace_id;
  c.parent_span_id = span_id;
  c.span_id = mix64(span_id ^ fnv1a(salt));
  if (c.span_id == 0) c.span_id = 1;  // keep 0 reserved for "no context"
  return c;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(clock().now()) {}

TraceContext Tracer::new_root() {
  TraceContext ctx;
  ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = mix64(ctx.trace_id);
  if (ctx.span_id == 0) ctx.span_id = 1;
  ctx.parent_span_id = 0;
  return ctx;
}

double Tracer::now_us() const {
  return (clock().now() - epoch_.load(std::memory_order_relaxed)) * 1e6;
}

void Tracer::push(TraceEvent e) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void Tracer::complete(std::string name, std::string cat, double ts_us, double dur_us) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  push(std::move(e));
}

void Tracer::complete(std::string name, std::string cat, double ts_us, double dur_us,
                      const TraceContext& ctx) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.parent_span_id = ctx.parent_span_id;
  push(std::move(e));
}

void Tracer::instant(std::string name, std::string cat) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'i';
  e.ts_us = now_us();
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  push(std::move(e));
}

void Tracer::instant(std::string name, std::string cat, const TraceContext& ctx) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'i';
  e.ts_us = now_us();
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.parent_span_id = ctx.parent_span_id;
  push(std::move(e));
}

void Tracer::flow_start(std::string name, std::string cat, std::uint64_t id,
                        const TraceContext& ctx) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 's';
  e.ts_us = now_us();
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  e.flow_id = id;
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.parent_span_id = ctx.parent_span_id;
  push(std::move(e));
}

void Tracer::flow_finish(std::string name, std::string cat, std::uint64_t id,
                         const TraceContext& ctx) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'f';
  e.ts_us = now_us();
  e.pid = kWallPid;
  e.tid = this_thread_tid();
  e.flow_id = id;
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.parent_span_id = ctx.parent_span_id;
  push(std::move(e));
}

void Tracer::counter(std::string name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.ph = 'C';
  e.ts_us = now_us();
  e.pid = kWallPid;
  e.value = value;
  push(std::move(e));
}

void Tracer::counter_at(std::string name, double value, double ts_us, std::uint32_t pid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.ph = 'C';
  e.ts_us = ts_us;
  e.pid = pid;
  e.value = value;
  push(std::move(e));
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard lock(mu_);
  return events_;
}

std::string Tracer::to_chrome_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Process-name metadata so the two timelines are labelled in the viewer.
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kWallPid
      << ",\"args\":{\"name\":\"dosas runtime (wall clock)\"}},";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
      << ",\"args\":{\"name\":\"dosas sim (virtual time)\"}}";
  for (const auto& e : events_) {
    out << ",{\"name\":";
    append_json_string(out, e.name);
    if (!e.cat.empty()) {
      out << ",\"cat\":";
      append_json_string(out, e.cat);
    }
    out << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us << ",\"pid\":" << e.pid
        << ",\"tid\":" << e.tid;
    if (e.ph == 'X') out << ",\"dur\":" << e.dur_us;
    if (e.ph == 'i') out << ",\"s\":\"t\"";  // thread-scoped instant
    if (e.ph == 's' || e.ph == 'f') out << ",\"id\":" << e.flow_id;
    if (e.ph == 'f') out << ",\"bp\":\"e\"";  // bind to enclosing slice
    if (e.ph == 'C') {
      out << ",\"args\":{\"value\":" << e.value << '}';
    } else if (e.trace_id != 0) {
      out << ",\"args\":{\"trace_id\":" << e.trace_id << ",\"span_id\":" << e.span_id
          << ",\"parent_span_id\":" << e.parent_span_id << '}';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

Status Tracer::write(const std::string& path) const {
  const std::string json = to_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return error(ErrorCode::kInternal, "cannot write trace file " + path);
  }
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) {
    return error(ErrorCode::kInternal, "short write to trace file " + path);
  }
  return Status::ok();
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
  // Re-epoch on the *current* clock so a test that installs a
  // VirtualClock and clears the tracer gets timestamps from virtual zero.
  epoch_.store(clock().now(), std::memory_order_relaxed);
  // Reset root-id allocation too: seeded DST runs must produce identical
  // trace/span ids, and ids join the canonical fingerprints.
  next_trace_id_.store(1, std::memory_order_relaxed);
}

ScopedTrace::ScopedTrace(std::string_view name, std::string_view cat)
    : ScopedTrace(name, cat, TraceContext{}) {}

ScopedTrace::ScopedTrace(std::string_view name, std::string_view cat, const TraceContext& ctx) {
  auto& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  name_ = name;
  cat_ = cat;
  start_us_ = tracer.now_us();
  ctx_ = ctx;
}

ScopedTrace::~ScopedTrace() {
  if (!active_) return;
  auto& tracer = Tracer::global();
  if (ctx_.valid()) {
    tracer.complete(std::move(name_), std::move(cat_), start_us_,
                    tracer.now_us() - start_us_, ctx_);
  } else {
    tracer.complete(std::move(name_), std::move(cat_), start_us_,
                    tracer.now_us() - start_us_);
  }
}

}  // namespace dosas::obs
