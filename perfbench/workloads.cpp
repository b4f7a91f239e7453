#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>

#include "common/clock.hpp"
#include "pfs/layout.hpp"

namespace perfbench {

using dosas::BufferRef;
using dosas::core::SchemeKind;

namespace {

WorkloadSpec make_spec(std::string name, std::uint32_t nodes, Bytes strip, SchemeKind scheme) {
  WorkloadSpec s;
  s.name = std::move(name);
  s.cluster.storage_nodes = nodes;
  s.cluster.cores_per_node = 1;
  s.cluster.strip_size = strip;
  s.cluster.scheme = scheme;
  return s;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> out;

  // Per-request overhead: the kernel and the bytes cost about a
  // microsecond, so the client, rpc, admission, dispatch ring and metric
  // emission dominate. Metrics are on here and nowhere else.
  auto small = make_spec("small_active", 4, 64_KiB, SchemeKind::kActive);
  small.metrics = true;
  small.read_length = 4_KiB;
  small.write_length = 4_KiB;
  small.operations = {kSumOp};
  out.push_back(small);

  // Per-byte cost (fill, slabs, kernel, merge), with writes of the same
  // shape through the same nodes, transport and data servers.
  auto striped = make_spec("striped_rw", 4, 256_KiB, SchemeKind::kActive);
  striped.read_length = 1_MiB;
  striped.write_length = 1_MiB;
  striped.operations = {kSumOp};
  out.push_back(striped);

  // Contention: queues deep enough that the CE solves on every arrival and
  // rejects and interrupts a steady share, so admission, the optimizer,
  // checkpoint hand-back and client-side completion are on the critical
  // path. Two CPUs, so that a kernel can be interrupted while it runs.
  auto mix = make_spec("dosas_mix", 2, 256_KiB, SchemeKind::kDosas);
  mix.cpus = 2;
  mix.readers = 2;
  mix.depth = 8;
  mix.read_length = 256_KiB;
  mix.write_length = 256_KiB;
  mix.operations = {kSumOp, kGaussianOp};
  out.push_back(mix);
  return out;
}

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// One thread's measured share of a phase, per window.
struct ThreadResult {
  std::vector<Window> windows;
  SpanTotals spans;
};

struct PhaseContext {
  Deployment& d;
  const WorkloadSpec& spec;
  const Oracle& oracle;
  Tallies& tallies;
  bool traced;
  std::atomic<int>& phase;
  std::atomic<int>& window;

  /// The window an operation completing now is measured in, or nullptr.
  Window* measuring(ThreadResult& out) const {
    if (phase.load(std::memory_order_relaxed) != kMeasure) return nullptr;
    return &out.windows[static_cast<std::size_t>(window.load(std::memory_order_relaxed))];
  }
};

void read_loop(PhaseContext& ctx, Rng rng, ThreadResult& out) {
  auto& asc = ctx.d.cluster->asc();
  const auto& meta = ctx.d.meta;
  const Bytes strip = ctx.spec.cluster.strip_size;
  const dosas::pfs::Layout layout(meta.striping);
  std::uint64_t issued = 0;

  struct Inflight {
    Extent ext;
    const std::string* operation = nullptr;
    double t0 = 0;
    dosas::client::ActiveClient::PendingReadEx pending;
  };
  std::deque<Inflight> queue;

  auto finish = [&](const Inflight& f, const dosas::Result<std::vector<std::uint8_t>>& r,
                    double t1) {
    const Expect expect = ctx.oracle.expect(*f.operation, f.ext.offset, f.ext.length);
    ctx.tallies.read.record(r.is_ok(), r.is_ok() && result_matches(r.value(), expect));
    if (Window* w = ctx.measuring(out)) {
      ++w->reads;
      w->read_us.push_back(static_cast<float>((t1 - f.t0) * 1e6));
    }
  };
  auto next = [&] {
    Inflight f;
    f.ext = pick_extent(rng, ctx.spec.read_length, strip);
    f.operation = &ctx.spec.operations[issued++ % ctx.spec.operations.size()];
    return f;
  };

  const bool blocking = ctx.spec.depth == 1 && !ctx.traced;
  while (ctx.phase.load(std::memory_order_relaxed) != kStop) {
    if (blocking) {
      Inflight f = next();
      f.t0 = now_seconds();
      auto r = asc.read_ex(meta, f.ext.offset, f.ext.length, *f.operation);
      finish(f, r, now_seconds());
      continue;
    }
    while (queue.size() < static_cast<std::size_t>(ctx.spec.depth)) {
      Inflight f = next();
      if (ctx.traced) {
        const auto node = layout.server_of(f.ext.offset);
        ++out.spans.queue_depths[ctx.d.cluster->storage_server(node).inflight()];
      }
      f.t0 = now_seconds();
      f.pending = asc.read_ex_async(meta, f.ext.offset, f.ext.length, *f.operation);
      if (ctx.traced) {
        out.spans.submit_us += (now_seconds() - f.t0) * 1e6;
        ++out.spans.submits;
      }
      queue.push_back(std::move(f));
    }
    Inflight f = std::move(queue.front());
    queue.pop_front();
    const double w0 = now_seconds();
    auto r = f.pending.wait();
    const double t1 = now_seconds();
    if (ctx.traced) {
      out.spans.wait_us += (t1 - w0) * 1e6;
      ++out.spans.waits;
    }
    finish(f, r, t1);
  }
  while (!queue.empty()) {  // drain: checked and tallied, never measured
    Inflight f = std::move(queue.front());
    queue.pop_front();
    auto r = f.pending.wait();
    finish(f, r, now_seconds());
  }
}

void write_loop(PhaseContext& ctx, Rng rng, ThreadResult& out) {
  // A write runs wholly on its caller's thread; on a workload given two
  // CPUs this keeps the writer on the same one in every run.
  restrict_to_cpus(1);
  auto& asc = ctx.d.cluster->asc();
  const Bytes strip = ctx.spec.cluster.strip_size;
  const auto& image = ctx.oracle.image();
  while (ctx.phase.load(std::memory_order_relaxed) != kStop) {
    const Extent ext = pick_extent(rng, ctx.spec.write_length, strip);
    // Rewrite the file's own generated bytes: every concurrent read's
    // expected result stays fixed whatever the interleaving.
    const auto payload = BufferRef::borrow(image.bytes(ext.offset, ext.length));
    const double t0 = now_seconds();
    auto r = asc.write(ctx.d.meta, ext.offset, payload);
    const double t1 = now_seconds();
    ctx.tallies.write.record(r.is_ok(), r.is_ok() && r.value().size == kFileSize);
    if (ctx.traced) {
      out.spans.write_us += (t1 - t0) * 1e6;
      ++out.spans.writes;
    }
    if (Window* w = ctx.measuring(out)) {
      ++w->writes;
      w->write_us.push_back(static_cast<float>((t1 - t0) * 1e6));
    }
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> workloads = build_workloads();
  for (const auto& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Extent pick_extent(Rng& rng, Bytes length, Bytes strip) {
  const Bytes strips = kFileSize / strip;
  if (length <= strip) {
    const Bytes slots = (strip - length) / sizeof(double) + 1;
    return {rng.below(strips) * strip + rng.below(slots) * sizeof(double), length};
  }
  return {rng.below(strips - length / strip + 1) * strip, length};
}

Oracle::Oracle(const FileImage& image, const WorkloadSpec& spec)
    : image_(image), strip_(spec.cluster.strip_size) {
  const bool gaussian = std::find(spec.operations.begin(), spec.operations.end(),
                                  kGaussianOp) != spec.operations.end();
  if (gaussian && spec.read_length == strip_) {
    for (Bytes off = 0; off < kFileSize; off += strip_) {
      strip_digests_.push_back(image.gaussian(off, strip_, kGaussianWidth));
    }
  }
}

Expect Oracle::expect(const std::string& operation, Bytes offset, Bytes length) const {
  Expect e;
  if (operation != kGaussianOp) {
    e.sum = image_.sum(offset, length);
    return e;
  }
  e.gaussian = true;
  if (!strip_digests_.empty() && length == strip_ && offset % strip_ == 0) {
    e.digest = strip_digests_[offset / strip_];
  } else {
    e.digest = image_.gaussian(offset, length, kGaussianWidth);
  }
  return e;
}

Deployment deploy(const WorkloadSpec& spec, const FileImage& image) {
  Deployment d;
  d.cluster = std::make_unique<dosas::core::Cluster>(spec.cluster);
  auto created = d.cluster->pfs_client().create("/perfbench/data");
  if (!created.is_ok()) throw std::runtime_error("create: " + created.status().to_string());
  d.meta = created.value();
  // One strip per node per write, so populating never raises the
  // transport's in-flight high-water mark above what the workloads reach.
  const Bytes piece = spec.cluster.strip_size * spec.cluster.storage_nodes;
  for (Bytes off = 0; off < kFileSize; off += piece) {
    auto r = d.cluster->asc().write(d.meta, off, BufferRef::borrow(image.bytes(off, piece)));
    if (!r.is_ok()) throw std::runtime_error("populate: " + r.status().to_string());
    d.meta = r.value();
  }
  return d;
}

PhaseResult run_phase(Deployment& d, const WorkloadSpec& spec, const Oracle& oracle,
                      PhaseKind kind, double warmup, double measure, bool traced,
                      std::uint64_t seed, std::uint64_t stream, Tallies& tallies) {
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(measure / kWindowSeconds)));
  std::atomic<int> phase{kWarmup};
  std::atomic<int> window{0};
  PhaseContext ctx{d, spec, oracle, tallies, traced, phase, window};
  const int readers = kind == PhaseKind::kMain ? spec.readers : 0;
  const int writers = kind == PhaseKind::kWrite ? 1 : 0;
  std::vector<ThreadResult> results(static_cast<std::size_t>(readers + writers));
  std::vector<std::thread> threads;
  for (int t = 0; t < readers + writers; ++t) {
    Rng rng(stream_seed(seed, stream, static_cast<std::uint64_t>(t)));
    auto& out = results[static_cast<std::size_t>(t)];
    out.windows.resize(windows);
    if (t < readers) {
      threads.emplace_back([&ctx, rng, &out] { read_loop(ctx, rng, out); });
    } else {
      threads.emplace_back([&ctx, rng, &out] { write_loop(ctx, rng, out); });
    }
  }

  PhaseResult r;
  r.windows.resize(windows);
  auto& clock = dosas::wall_clock();
  clock.sleep(warmup);
  double t = now_seconds();
  double cpu = process_cpu_seconds();
  phase.store(kMeasure);
  for (std::size_t w = 0; w < windows; ++w) {
    clock.sleep(measure / static_cast<double>(windows));
    if (w + 1 < windows) {
      window.store(static_cast<int>(w + 1));
    } else {
      phase.store(kStop);
    }
    const double t_next = now_seconds();
    const double cpu_next = process_cpu_seconds();
    r.windows[w].seconds = t_next - t;
    r.windows[w].cpu_seconds = cpu_next - cpu;
    t = t_next;
    cpu = cpu_next;
  }
  for (auto& th : threads) th.join();

  for (auto& tr : results) {
    for (std::size_t w = 0; w < windows; ++w) {
      auto& dst = r.windows[w];
      auto& src = tr.windows[w];
      dst.reads += src.reads;
      dst.writes += src.writes;
      dst.read_us.insert(dst.read_us.end(), src.read_us.begin(), src.read_us.end());
      dst.write_us.insert(dst.write_us.end(), src.write_us.begin(), src.write_us.end());
    }
    r.spans.submit_us += tr.spans.submit_us;
    r.spans.wait_us += tr.spans.wait_us;
    r.spans.write_us += tr.spans.write_us;
    r.spans.submits += tr.spans.submits;
    r.spans.waits += tr.spans.waits;
    r.spans.writes += tr.spans.writes;
    for (const auto& [depth, n] : tr.spans.queue_depths) r.spans.queue_depths[depth] += n;
  }
  std::vector<const Window*> all;
  for (const auto& w : r.windows) all.push_back(&w);
  r.total = sum_windows(all);
  return r;
}

void append(PhaseResult& into, PhaseResult from) {
  for (auto& w : from.windows) into.windows.push_back(std::move(w));
  std::vector<const Window*> all;
  for (const auto& w : into.windows) all.push_back(&w);
  into.total = sum_windows(all);
}

void verify_readback(Deployment& d, const FileImage& image, Tallies& tallies) {
  constexpr Bytes kPiece = 4_MiB;
  for (Bytes off = 0; off < kFileSize; off += kPiece) {
    auto r = d.cluster->asc().read_ref(d.meta, off, kPiece);
    const auto want = image.bytes(off, kPiece);
    tallies.readback.record(r.is_ok(), r.is_ok() && std::equal(r.value().begin(), r.value().end(),
                                                                want.begin(), want.end()));
  }
}

Window sum_windows(const std::vector<const Window*>& windows) {
  Window total;
  for (const Window* w : windows) {
    total.seconds += w->seconds;
    total.cpu_seconds += w->cpu_seconds;
    total.reads += w->reads;
    total.writes += w->writes;
  }
  return total;
}

int restrict_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int lowest = -1;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n > 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &chosen);
    lowest = c;
    --n;
  }
  if (n > 0) return -1;
  return sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? lowest : -1;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double now_seconds() { return dosas::wall_clock().now(); }

}  // namespace perfbench
