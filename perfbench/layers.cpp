#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <future>
#include <numeric>
#include <thread>

#include "common/serialize.hpp"
#include "core/scheme.hpp"
#include "kernels/operation.hpp"
#include "obs/metrics.hpp"
#include "pfs/layout.hpp"
#include "sched/optimizer.hpp"

namespace perfbench {

namespace {

using dosas::server::ActiveIoRequest;
using dosas::server::ActiveIoResponse;
using dosas::server::ActiveOutcome;

/// One layer probe: calls made, process CPU per call, mean timed section.
struct Probe {
  std::uint64_t calls = 0;
  double cpu_us = 0;
  double wall_us = 0;
};

/// Times one probe call. The benchmark's own checking of the call's output
/// runs inside check(), whose (single-threaded, CPU-bound) time is taken
/// out of the probe's process CPU.
struct ProbeCall {
  double timed_us = 0;
  double check_us = 0;

  template <typename F>
  void check(F&& f) {
    const double t0 = now_seconds();
    f();
    check_us += (now_seconds() - t0) * 1e6;
  }
};

/// Single-thread layer probes run round-robin in short slices, so every
/// probe samples the same machine conditions and subtracting one probe's
/// cost from another's compares like with like.
class ProbeSet {
 public:
  /// `call(i, pc)` makes the i-th call of the probe and sets pc.timed_us to
  /// the µs of the layer call it makes.
  using Call = std::function<void(std::uint64_t, ProbeCall&)>;

  std::size_t add(Call call) {
    probes_.push_back({std::move(call)});
    return probes_.size() - 1;
  }

  void run(double budget) {
    constexpr double kSlice = 0.02;
    const auto rounds = std::max<std::size_t>(
        1, static_cast<std::size_t>(budget / (kSlice * static_cast<double>(probes_.size()))));
    for (std::size_t round = 0; round < rounds; ++round) {
      for (auto& p : probes_) {
        const double cpu0 = process_cpu_seconds();
        const double end = now_seconds() + kSlice;
        do {
          ProbeCall pc;
          p.call(p.calls, pc);
          p.timed_us += pc.timed_us;
          p.check_us += pc.check_us;
          ++p.calls;
        } while (now_seconds() < end);
        p.cpu_us += (process_cpu_seconds() - cpu0) * 1e6;
      }
    }
  }

  Probe result(std::size_t i) const {
    const auto& p = probes_.at(i);
    const double n = static_cast<double>(p.calls);
    return {p.calls, (p.cpu_us - p.check_us) / n, p.timed_us / n};
  }

 private:
  struct Entry {
    Call call;
    std::uint64_t calls = 0;
    double timed_us = 0;
    double check_us = 0;
    double cpu_us = 0;
  };
  std::vector<Entry> probes_;
};

/// One per-node piece of a workload read: what the client sends one server.
struct Leg {
  dosas::pfs::ServerId server = 0;
  Bytes object_offset = 0;
  Bytes file_offset = 0;
  Bytes length = 0;
  const std::string* operation = nullptr;
};

/// Counters sampled around the traced phase.
struct Counters {
  dosas::client::ActiveClient::Stats client;
  dosas::rpc::TransportStats transport;
  std::uint64_t rejected = 0;
  std::uint64_t interrupted = 0;
  dosas::RingStats ring;
  std::uint64_t copied = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

Counters sample(Deployment& d, const Tallies& tallies) {
  Counters c;
  auto& cluster = *d.cluster;
  c.client = cluster.asc().stats();
  c.transport = cluster.asc().transport_stats();
  for (std::uint32_t i = 0; i < cluster.storage_node_count(); ++i) {
    const auto s = cluster.storage_server(i).stats();
    c.rejected += s.active_rejected;
    c.interrupted += s.active_interrupted;
    c.ring += cluster.storage_server(i).dispatch_ring_stats();
  }
  c.copied = dosas::data_bytes_copied();
  c.reads = tallies.read.attempted.load();
  c.writes = tallies.write.attempted.load();
  return c;
}

/// n / base, or 0 when there is no base.
template <typename N, typename B>
double per(N n, B base) {
  return base > 0 ? static_cast<double>(n) / static_cast<double>(base) : 0.0;
}

/// Record a probe's active-I/O outcome: completed results are checked;
/// rejections and interruptions are scheduling outcomes, not failures.
bool record_outcome(const ActiveIoResponse& resp, const Expect& expect, Tallies& tallies) {
  if (resp.outcome == ActiveOutcome::kCompleted) {
    tallies.probe.record(true, result_matches(resp.result, expect));
    return true;
  }
  if (resp.outcome == ActiveOutcome::kFailed) tallies.probe.record(false, true);
  return false;
}

std::string rate_key(const std::string& operation) {
  auto spec = dosas::kernels::OperationSpec::parse(operation);
  return spec.is_ok() ? spec.value().kernel : operation;
}

}  // namespace

std::vector<Metric> run_layers(const WorkloadSpec& spec, const FileImage& image,
                               const Oracle& oracle, std::uint64_t seed, double seconds,
                               Tallies& tallies) {
  Deployment d = deploy(spec, image);
  auto& cluster = *d.cluster;
  auto& asc = cluster.asc();
  const auto& meta = d.meta;
  const Bytes strip = spec.cluster.strip_size;

  // 1. The workload untraced, then traced: the per-op CPU the layers are
  //    reconciled against, the tracing overhead, client spans and counters.
  const double phase_s = 0.2 * seconds;
  const PhaseResult base = run_phase(d, spec, oracle, PhaseKind::kMain, 0.3, phase_s, false,
                                     seed, 20, tallies);
  const Counters c0 = sample(d, tallies);
  const PhaseResult traced = run_phase(d, spec, oracle, PhaseKind::kMain, 0.1, phase_s, true,
                                       seed, 21, tallies);
  const Counters c1 = sample(d, tallies);
  const Window& base_q = base.total;
  const Window& traced_q = traced.total;
  const SpanTotals write_spans =
      run_phase(d, spec, oracle, PhaseKind::kWrite, 0.1, 0.1 * seconds, true, seed, 22, tallies)
          .spans;

  // 2. Layer probes, one thread, one call at a time, on the workload's own
  //    request shapes.
  Rng rng(stream_seed(seed, 30, 0));
  const dosas::pfs::Layout layout(meta.striping);
  std::vector<Extent> reads;
  std::vector<Extent> writes;
  std::vector<Leg> legs;
  for (std::size_t i = 0; i < 1024; ++i) {
    reads.push_back(pick_extent(rng, spec.read_length, strip));
    writes.push_back(pick_extent(rng, spec.write_length, strip));
    const std::string* op = &spec.operations[i % spec.operations.size()];
    for (const auto& seg : layout.map_extent(reads.back().offset, spec.read_length)) {
      legs.push_back({seg.server, seg.object_offset, seg.logical_offset, seg.length, op});
    }
  }
  const double legs_per_read = per(legs.size(), 1024.0);
  const Bytes leg_bytes = legs.front().length;
  auto op_of = [&](std::uint64_t i) -> const std::string& {
    return spec.operations[i % spec.operations.size()];
  };
  ProbeSet probes;

  const auto client_read_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Extent& e = reads[i % reads.size()];
    const double t0 = now_seconds();
    auto r = asc.read_ex(meta, e.offset, e.length, op_of(i));
    pc.timed_us = (now_seconds() - t0) * 1e6;
    pc.check([&] {
      tallies.probe.record(r.is_ok(), r.is_ok() && result_matches(r.value(), oracle.expect(
                                                                              op_of(i), e.offset,
                                                                              e.length)));
    });
  });
  const auto client_write_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Extent& e = writes[i % writes.size()];
    const auto payload = dosas::BufferRef::borrow(image.bytes(e.offset, e.length));
    const double t0 = now_seconds();
    auto r = asc.write(meta, e.offset, payload);
    pc.timed_us = (now_seconds() - t0) * 1e6;
    tallies.probe.record(r.is_ok(), true);
  });

  std::uint64_t rpc_completed = 0;
  const auto rpc_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Leg& leg = legs[i % legs.size()];
    dosas::rpc::Envelope env;
    env.target = leg.server;
    env.kind = dosas::rpc::OpKind::kActiveIo;
    env.active.handle = meta.handle;
    env.active.object_offset = leg.object_offset;
    env.active.length = leg.length;
    env.active.operation = *leg.operation;
    const double t0 = now_seconds();
    auto reply = asc.transport().submit(std::move(env)).wait();
    pc.timed_us = (now_seconds() - t0) * 1e6;
    pc.check([&] {
      rpc_completed += record_outcome(
          reply.active, oracle.expect(*leg.operation, leg.file_offset, leg.length), tallies);
    });
  });

  double admit_us = 0;
  std::uint64_t server_completed = 0;
  const auto server_active_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Leg& leg = legs[i % legs.size()];
    ActiveIoRequest req;
    req.handle = meta.handle;
    req.object_offset = leg.object_offset;
    req.length = leg.length;
    req.operation = *leg.operation;
    std::promise<ActiveIoResponse> done;
    auto future = done.get_future();
    double t_done = 0;
    const double t0 = now_seconds();
    cluster.storage_server(leg.server)
        .submit_active(std::move(req), [&done, &t_done](ActiveIoResponse resp) {
          t_done = now_seconds();
          done.set_value(std::move(resp));
        });
    admit_us += (now_seconds() - t0) * 1e6;
    const ActiveIoResponse resp = future.get();
    pc.timed_us = (t_done - t0) * 1e6;
    pc.check([&] {
      server_completed += record_outcome(
          resp, oracle.expect(*leg.operation, leg.file_offset, leg.length), tallies);
    });
  });

  const auto normal_read_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Leg& leg = legs[i % legs.size()];
    const double t0 = now_seconds();
    auto r = cluster.storage_server(leg.server).serve_normal(meta.handle, leg.object_offset,
                                                             leg.length);
    pc.timed_us = (now_seconds() - t0) * 1e6;
    pc.check([&] {
      const auto want = image.bytes(leg.file_offset, leg.length);
      tallies.probe.record(r.is_ok(), r.is_ok() && std::equal(r.value().begin(),
                                                              r.value().end(), want.begin(),
                                                              want.end()));
    });
  });

  // The CE solve over request sets of the depths the traced run saw at
  // submission (the arriving request joins the queue it found), and over a
  // lone arrival.
  const auto optimizer =
      dosas::sched::make_optimizer(dosas::core::scheme_optimizer(spec.cluster.scheme));
  auto& ce = cluster.storage_server(0).estimator();
  using Solvable =
      std::vector<std::pair<dosas::sched::CostModel, std::vector<dosas::sched::ActiveRequest>>>;
  auto add_solve_probe = [&](std::size_t k) {
    std::map<std::string, std::vector<dosas::sched::ActiveRequest>> groups;
    for (std::size_t i = 0; i < k; ++i) {
      const std::string& op = op_of(i);
      auto kernel = cluster.registry().create(op);
      const Bytes result = kernel.is_ok() ? kernel.value()->result_size(leg_bytes) : 0;
      groups[rate_key(op)].push_back({i + 1, leg_bytes, result, op});
    }
    Solvable solvable;
    for (auto& [key, requests] : groups) {
      auto model = ce.model_for(key);
      if (model.is_ok()) solvable.emplace_back(model.value(), std::move(requests));
    }
    return probes.add([&, k, solvable](std::uint64_t, ProbeCall& pc) {
      const double t0 = now_seconds();
      std::size_t active = 0;
      for (const auto& [model, requests] : solvable) {
        active += optimizer->run(model, requests).active_count();
      }
      pc.timed_us = (now_seconds() - t0) * 1e6;
      tallies.probe.record(true, active <= k);
    });
  };
  const auto& depths = traced.spans.queue_depths;
  std::uint64_t depth_samples = 0;
  double depth_sum = 0;
  std::vector<std::pair<std::size_t, double>> solve_at_depth;  // probe, share of samples
  for (const auto& [depth, n] : depths) {
    depth_samples += n;
    depth_sum += static_cast<double>(depth * n);
  }
  for (const auto& [depth, n] : depths) {
    solve_at_depth.emplace_back(add_solve_probe(depth + 1), per(n, depth_samples));
  }
  const auto solve_single_id = add_solve_probe(1);

  auto add_kernel_probe = [&](const char* op) {
    return probes.add([&, op](std::uint64_t i, ProbeCall& pc) {
      const Extent& e = reads[i % reads.size()];
      const double t0 = now_seconds();
      auto kernel = cluster.registry().create(op);
      kernel.value()->reset();
      kernel.value()->consume(image.bytes(e.offset, e.length));
      const auto out = kernel.value()->finalize();
      pc.timed_us = (now_seconds() - t0) * 1e6;
      pc.check([&] {
        tallies.probe.record(true, result_matches(out, oracle.expect(op, e.offset, e.length)));
      });
    });
  };
  const auto sum_kernel_id = add_kernel_probe(kSumOp);
  const auto gaussian_kernel_id = add_kernel_probe(kGaussianOp);

  const auto checkpoint_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Extent& e = reads[i % reads.size()];
    const Bytes half = e.length / 2 / sizeof(double) * sizeof(double);
    auto first = cluster.registry().create(kGaussianOp);
    first.value()->reset();
    first.value()->consume(image.bytes(e.offset, half));
    const double t0 = now_seconds();
    const auto encoded = first.value()->checkpoint().encode();
    auto decoded = dosas::Checkpoint::decode(encoded);
    auto resumed = cluster.registry().create(kGaussianOp);
    const bool restored = decoded.is_ok() && resumed.value()->restore(decoded.value()).is_ok();
    pc.timed_us = (now_seconds() - t0) * 1e6;
    resumed.value()->consume(image.bytes(e.offset + half, e.length - half));
    tallies.probe.record(restored, result_matches(resumed.value()->finalize(),
                                                  oracle.expect(kGaussianOp, e.offset,
                                                                e.length)));
  });

  const auto pfs_read_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Extent& e = reads[i % reads.size()];
    const double t0 = now_seconds();
    auto r = cluster.pfs_client().read_ref(meta, e.offset, e.length);
    pc.timed_us = (now_seconds() - t0) * 1e6;
    pc.check([&] {
      const auto want = image.bytes(e.offset, e.length);
      tallies.probe.record(r.is_ok(), r.is_ok() && std::equal(r.value().begin(),
                                                              r.value().end(), want.begin(),
                                                              want.end()));
    });
  });
  const auto pfs_write_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const Extent& e = writes[i % writes.size()];
    const double t0 = now_seconds();
    auto r = cluster.pfs_client().write(meta, e.offset, image.bytes(e.offset, e.length));
    pc.timed_us = (now_seconds() - t0) * 1e6;
    tallies.probe.record(r.is_ok(), true);
  });
  constexpr std::uint64_t kMapBatch = 256;
  std::uint64_t segments = 0;
  const auto map_extent_id = probes.add([&](std::uint64_t i, ProbeCall& pc) {
    const double t0 = now_seconds();
    for (std::uint64_t j = 0; j < kMapBatch; ++j) {
      const Extent& e = reads[(i * kMapBatch + j) % reads.size()];
      segments += layout.map_extent(e.offset, e.length).size();
    }
    pc.timed_us = (now_seconds() - t0) * 1e6 / kMapBatch;
    tallies.probe.record(true, segments > 0);
  });

  probes.run(0.4 * seconds);
  const Probe client_read = probes.result(client_read_id);
  const Probe client_write = probes.result(client_write_id);
  const Probe rpc = probes.result(rpc_id);
  const Probe server_active = probes.result(server_active_id);
  const Probe normal_read = probes.result(normal_read_id);
  const Probe solve_single = probes.result(solve_single_id);
  const Probe checkpoint = probes.result(checkpoint_id);
  const Probe pfs_read = probes.result(pfs_read_id);
  const Probe pfs_write = probes.result(pfs_write_id);
  const Probe map_extent = probes.result(map_extent_id);
  admit_us /= static_cast<double>(server_active.calls);
  double solve_us = 0;
  for (const auto& [probe, share] : solve_at_depth) {
    solve_us += share * probes.result(probe).wall_us;
  }
  const double sum_ns_per_byte =
      probes.result(sum_kernel_id).wall_us * 1e3 / static_cast<double>(spec.read_length);
  const double gaussian_ns_per_byte =
      probes.result(gaussian_kernel_id).wall_us * 1e3 / static_cast<double>(spec.read_length);

  // Metric emission cost with the registry on, from 4 threads at once.
  auto& registry = dosas::obs::MetricsRegistry::global();
  const bool metrics_were_on = registry.enabled();
  registry.set_enabled(true);
  constexpr int kObsThreads = 4;
  constexpr int kObsCalls = 100000;
  std::vector<double> count_ns(kObsThreads);
  std::vector<double> observe_ns(kObsThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kObsThreads; ++t) {
      threads.emplace_back([t, &count_ns, &observe_ns] {
        double t0 = now_seconds();
        for (int j = 0; j < kObsCalls; ++j) dosas::obs::count("perfbench.probe.count");
        count_ns[static_cast<std::size_t>(t)] = (now_seconds() - t0) * 1e9 / kObsCalls;
        t0 = now_seconds();
        for (int j = 0; j < kObsCalls; ++j) {
          dosas::obs::observe("perfbench.probe.observe", static_cast<double>(j & 1023));
        }
        observe_ns[static_cast<std::size_t>(t)] = (now_seconds() - t0) * 1e9 / kObsCalls;
      });
    }
    for (auto& t : threads) t.join();
  }
  registry.set_enabled(metrics_were_on);
  auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };

  verify_readback(d, image, tallies);

  // 3. Reconciliation: self-cost of each layer in CPU-µs per workload op.
  const double base_ops = static_cast<double>(base_q.reads + base_q.writes);
  const double cpu_us_per_op = per(base_q.cpu_seconds * 1e6, base_ops);
  const double r = per(base_q.reads, base_ops);
  const double w = per(base_q.writes, base_ops);
  const double L = legs_per_read;
  const double leg_kernel_us =
      (spec.operations.size() == 1 ? sum_ns_per_byte
                                   : (sum_ns_per_byte + gaussian_ns_per_byte) / 2) *
      static_cast<double>(leg_bytes) / 1e3;
  const double ran = per(server_completed, server_active.calls);
  struct Row {
    const char* layer;
    double us;
    std::string how;
  };
  char buf[512];
  auto fmt = [&buf](const char* f, auto... args) {
    std::snprintf(buf, sizeof buf, f, args...);
    return std::string(buf);
  };
  const double server_self = server_active.cpu_us -
                             ran * (leg_kernel_us + normal_read.cpu_us) - solve_single.cpu_us;
  const std::vector<Row> rows = {
      {"client",
       r * (client_read.cpu_us - L * rpc.cpu_us) + w * (client_write.cpu_us - pfs_write.cpu_us),
       fmt("r x (read_ex %.2f - %.2f legs x rpc %.2f) + w x (write %.2f - pfs write %.2f)",
           client_read.cpu_us, L, rpc.cpu_us, client_write.cpu_us, pfs_write.cpu_us)},
      {"rpc", r * L * (rpc.cpu_us - server_active.cpu_us),
       fmt("r x %.2f legs x (rpc %.2f - server %.2f)", L, rpc.cpu_us, server_active.cpu_us)},
      {"server", r * L * server_self,
       fmt("r x %.2f legs x (server %.2f - %.2f ran x (kernel %.2f + fill %.2f) - solve %.2f)",
           L, server_active.cpu_us, ran, leg_kernel_us, normal_read.cpu_us,
           solve_single.cpu_us)},
      {"sched", r * L * solve_single.cpu_us,
       fmt("r x %.2f legs x solve(k=1) %.2f", L, solve_single.cpu_us)},
      {"kernels", r * L * ran * leg_kernel_us,
       fmt("r x %.2f legs x %.2f ran x %.2f per %llu-byte leg", L, ran, leg_kernel_us,
           static_cast<unsigned long long>(leg_bytes))},
      {"pfs", r * L * ran * normal_read.cpu_us + w * pfs_write.cpu_us,
       fmt("r x %.2f legs x %.2f ran x fill %.2f + w x pfs write %.2f", L, ran,
           normal_read.cpu_us, pfs_write.cpu_us)},
  };
  double accounted = 0;
  for (const auto& row : rows) accounted += row.us;
  const double unaccounted = cpu_us_per_op - accounted;

  auto u = [](auto v) { return static_cast<unsigned long long>(v); };
  std::printf("reconciliation (%s): CPU-us per operation; r = %llu of %llu ops are reads, "
              "w = %llu of %llu are writes\n",
              spec.name.c_str(), u(base_q.reads), u(base_ops), u(base_q.writes), u(base_ops));
  std::printf("  %-14s %10s  %s\n", "layer", "self-cost",
              "derivation (isolated probes, process CPU-us per call)");
  for (const auto& row : rows) {
    std::printf("  %-14s %10.2f  %s\n", row.layer, row.us, row.how.c_str());
  }
  std::printf("  %-14s %10.2f  sum of the layers above\n", "accounted", accounted);
  std::printf("  %-14s %10.2f  untraced workload: %.3f CPU-s over %llu ops\n",
              "cpu_us_per_op", cpu_us_per_op, base_q.cpu_seconds, u(base_ops));
  std::printf("  %-14s %10.2f  cpu_us_per_op - accounted (%.1f%% of cpu_us_per_op)\n",
              "unaccounted", unaccounted, 100.0 * per(unaccounted, cpu_us_per_op));

  const double reads_d = static_cast<double>(c1.reads - c0.reads);
  const double writes_d = static_cast<double>(c1.writes - c0.writes);
  const auto ring_ops = (c1.ring.push_attempts - c0.ring.push_attempts) +
                        (c1.ring.pop_attempts - c0.ring.pop_attempts);
  const auto cas = (c1.ring.push_cas_retries - c0.ring.push_cas_retries) +
                   (c1.ring.pop_cas_retries - c0.ring.pop_cas_retries);
  const auto parks = (c1.ring.producer_parks - c0.ring.producer_parks) +
                     (c1.ring.consumer_parks - c0.ring.consumer_parks);
  const auto demoted = c1.client.demoted - c0.client.demoted;
  const auto resumed = c1.client.resumed_local - c0.client.resumed_local;
  const auto local_runs = c1.client.local_kernel_runs - c0.client.local_kernel_runs;
  const auto envelopes = c1.transport.submitted - c0.transport.submitted;
  const auto rejected = c1.rejected - c0.rejected;
  const auto interrupted = c1.interrupted - c0.interrupted;
  const auto copied = c1.copied - c0.copied;
  const double base_rate = per(base_ops, base_q.seconds);
  const double traced_rate = per(traced_q.reads + traced_q.writes, traced_q.seconds);
  const double trace_overhead_pct = 100.0 * per(base_rate - traced_rate, base_rate);
  std::printf("ratios (traced phase: %llu reads, %llu writes attempted):\n", u(reads_d),
              u(writes_d));
  std::printf("  client: %llu of %llu reads demoted; %llu resumed from a checkpoint; "
              "%llu local kernel runs\n", u(demoted), u(reads_d), u(resumed), u(local_runs));
  std::printf("  rpc: %llu envelopes for %llu reads and %llu writes; "
              "in-flight high-water mark %llu\n",
              u(envelopes), u(reads_d), u(writes_d), u(c1.transport.inflight_hwm));
  std::printf("  server: %llu rejected and %llu interrupted for %llu reads; %llu CAS retries and "
              "%llu parks in %llu dispatch-ring push/pop attempts\n",
              u(rejected), u(interrupted), u(reads_d), u(cas), u(parks), u(ring_ops));
  std::printf("  server: queue depth at submission, mean %.2f over %llu samples\n",
              per(depth_sum, depth_samples), u(depth_samples));
  std::printf("  server probe: %llu of %llu direct submissions ran their kernel; rpc probe: "
              "%llu of %llu completed\n", u(server_completed), u(server_active.calls),
              u(rpc_completed), u(rpc.calls));
  std::printf("  data: %llu bytes copied over %llu ops\n", u(copied), u(reads_d + writes_d));
  std::printf("  tracing overhead: traced %.0f ops/s against untraced %.0f ops/s (%.1f%%)\n",
              traced_rate, base_rate, trace_overhead_pct);

  const double rtt = rpc.wall_us;
  return {
      {"client.submit_us", per(traced.spans.submit_us, traced.spans.submits), "us"},
      {"client.wait_us", per(traced.spans.wait_us, traced.spans.waits), "us"},
      {"client.write_us", per(write_spans.write_us, write_spans.writes), "us"},
      {"client.demoted_per_read", per(demoted, reads_d), "1/read"},
      {"client.resumed_per_read", per(resumed, reads_d), "1/read"},
      {"client.local_kernel_runs_per_read", per(local_runs, reads_d), "1/read"},
      {"rpc.active_rtt_us", rtt, "us"},
      {"rpc.overhead_us", rtt - server_active.wall_us, "us"},
      {"rpc.envelopes_per_read", per(envelopes, reads_d), "1/read"},
      {"rpc.inflight_hwm", static_cast<double>(c1.transport.inflight_hwm), "count"},
      {"server.active_us", server_active.wall_us, "us"},
      {"server.admit_us", admit_us, "us"},
      {"server.normal_read_us", normal_read.wall_us, "us"},
      {"server.rejected_per_read", per(rejected, reads_d), "1/read"},
      {"server.interrupted_per_read", per(interrupted, reads_d), "1/read"},
      {"server.ring_cas_retries_per_op", per(cas, ring_ops), "1/op"},
      {"server.ring_parks_per_op", per(parks, ring_ops), "1/op"},
      {"server.queue_depth", per(depth_sum, depth_samples), "count"},
      {"sched.solve_us", solve_us, "us"},
      {"kernels.sum_ns_per_byte", sum_ns_per_byte, "ns/B"},
      {"kernels.gaussian2d_ns_per_byte", gaussian_ns_per_byte, "ns/B"},
      {"kernels.checkpoint_restore_us", checkpoint.wall_us, "us"},
      {"pfs.read_ref_us", pfs_read.wall_us, "us"},
      {"pfs.write_us", pfs_write.wall_us, "us"},
      {"pfs.map_extent_ns", map_extent.wall_us * 1e3, "ns"},
      {"data.bytes_copied_per_op", per(copied, reads_d + writes_d), "B/op"},
      {"obs.count_ns", mean(count_ns), "ns"},
      {"obs.observe_ns", mean(observe_ns), "ns"},
      {"layer.client_us_per_op", rows[0].us, "us"},
      {"layer.rpc_us_per_op", rows[1].us, "us"},
      {"layer.server_us_per_op", rows[2].us, "us"},
      {"layer.sched_us_per_op", rows[3].us, "us"},
      {"layer.kernels_us_per_op", rows[4].us, "us"},
      {"layer.pfs_us_per_op", rows[5].us, "us"},
      {"layer.unaccounted_us_per_op", unaccounted, "us"},
      {"trace.overhead_pct", trace_overhead_pct, "%"},
  };
}

}  // namespace perfbench
