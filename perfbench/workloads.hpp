// workloads.hpp — the benchmark's three closed-loop workloads over the
// assembled DOSAS runtime (core::Cluster: client -> rpc -> server + sched
// -> kernels -> pfs), and the phase runner that drives them.
//
// Every workload is a closed loop from one process: each client thread
// issues its next request only when an earlier one has returned, because
// HPC callers each wait for their reply. No fault injector, no pacing, no
// network model, tracing off.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "inputs.hpp"

namespace perfbench {

inline constexpr Bytes kFileSize = 64_MiB;
inline constexpr const char* kSumOp = "sum";
inline constexpr const char* kGaussianOp = "gaussian2d:width=512";
inline constexpr std::size_t kGaussianWidth = 512;

struct WorkloadSpec {
  std::string name;
  dosas::core::ClusterConfig cluster;
  bool metrics = false;      ///< metrics registry enabled for the whole run
  int cpus = 1;              ///< CPUs the process runs on (see restrict_to_cpus)
  int readers = 1;           ///< client threads of the read phase
  int depth = 1;             ///< reads each reader keeps in flight
  Bytes read_length = 0;
  Bytes write_length = 0;
  std::vector<std::string> operations;  ///< a reader's i-th read runs operations[i % n]
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// A random extent of `length` bytes: inside one strip when it fits
/// (8-byte aligned), otherwise strip-aligned.
struct Extent {
  Bytes offset = 0;
  Bytes length = 0;
};
Extent pick_extent(Rng& rng, Bytes length, Bytes strip);

/// Expected results for the workload's reads; gaussian digests of
/// whole-strip extents are precomputed so checking stays off the measured
/// CPU.
class Oracle {
 public:
  Oracle(const FileImage& image, const WorkloadSpec& spec);
  Expect expect(const std::string& operation, Bytes offset, Bytes length) const;
  const FileImage& image() const { return image_; }

 private:
  const FileImage& image_;
  Bytes strip_;
  std::vector<GaussianExpect> strip_digests_;
};

/// A cluster populated with the benchmark file.
struct Deployment {
  std::unique_ptr<dosas::core::Cluster> cluster;
  dosas::pfs::FileMeta meta;
};

/// Build the cluster and write the file through ActiveClient::write.
Deployment deploy(const WorkloadSpec& spec, const FileImage& image);

struct Tallies {
  OpTally read;
  OpTally write;
  OpTally readback;
  OpTally probe;  ///< layer-probe calls of the traced run whose output is checked
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Client-call spans the traced run records around the runtime's public
/// functions, kept in memory per thread and merged at the end of a phase.
struct SpanTotals {
  double submit_us = 0;  ///< inside read_ex_async()
  double wait_us = 0;    ///< inside PendingReadEx::wait()
  double write_us = 0;   ///< inside ActiveClient::write()
  std::uint64_t submits = 0;
  std::uint64_t waits = 0;
  std::uint64_t writes = 0;
  std::map<std::size_t, std::uint64_t> queue_depths;  ///< inflight() at submission -> samples
};

enum class PhaseKind {
  kMain,   ///< the workload's readers
  kWrite,  ///< one writer
};

/// One measurement window of a phase.
struct Window {
  double seconds = 0;        ///< wall time of the window
  double cpu_seconds = 0;    ///< process user+system CPU in the window
  std::uint64_t reads = 0;   ///< completed in the window
  std::uint64_t writes = 0;
  std::vector<float> read_us;   ///< latency of each read completed in the window
  std::vector<float> write_us;
};

struct PhaseResult {
  Window total;                 ///< the whole measured span (latencies not kept)
  std::vector<Window> windows;  ///< measurement windows of about kWindowSeconds
  SpanTotals spans;             ///< traced phases only
};

/// Length of one measurement window. Short windows give many samples of
/// each per-window figure, so their median is steady.
inline constexpr double kWindowSeconds = 0.25;

/// Seconds, CPU and operation counts of `windows` added up (no latencies).
Window sum_windows(const std::vector<const Window*>& windows);

/// Run one closed-loop phase: `warmup` seconds unmeasured, then `measure`
/// seconds measured in windows. Every operation is checked and tallied,
/// measured or not. `stream` separates the request streams of different
/// phases.
PhaseResult run_phase(Deployment& d, const WorkloadSpec& spec, const Oracle& oracle,
                      PhaseKind kind, double warmup, double measure, bool traced,
                      std::uint64_t seed, std::uint64_t stream, Tallies& tallies);

/// Add the windows of an untraced phase to `into`.
void append(PhaseResult& into, PhaseResult from);

/// Read the whole file back through the client's normal read path and
/// compare it with the generator.
void verify_readback(Deployment& d, const FileImage& image, Tallies& tallies);

/// Restrict the calling thread to the `n` highest-numbered CPUs it may use
/// and return the lowest of them (-1 on failure); called before any other
/// thread starts, this restricts the process. Every request crosses threads
/// (client, dispatch ring, kernel worker, completion). Across CPUs a
/// crossing to a parked thread wakes another virtual CPU, and how long that
/// takes depends on what the rest of the host runs: it moved reads/s by a
/// factor of 2-4 between windows of one run. On one CPU a crossing is a
/// context switch, so the figures measure the runtime. A workload whose
/// kernel workers stay busy seldom parks them and can keep a second CPU.
int restrict_to_cpus(int n);

/// Process user+system CPU seconds so far.
double process_cpu_seconds();
/// Peak resident set of this process, MiB.
double peak_rss_mib();
/// Wall-clock seconds (monotonic).
double now_seconds();

/// q-quantile (0..1) of the samples, nearest rank below (0 when empty).
/// Reorders `samples`.
template <typename T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return static_cast<double>(samples[k]);
}

}  // namespace perfbench
