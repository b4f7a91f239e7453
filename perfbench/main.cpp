// dosas_perfbench — the repository benchmark of the DOSAS runtime.
//
//   dosas_perfbench --workload <small_active|striped_rw|dosas_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics and prints the
// reconciliation table. Either way every operation is checked against the
// oracles in inputs.hpp, and the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;
/// The measured time is split into rounds, each a main phase followed by
/// the write phase, so that both phases sample the machine's
/// conditions over the whole run rather than over one stretch of it.
constexpr int kRounds = 4;
/// Unmeasured warm-up before the first phase and before each later one,
/// seconds.
constexpr double kWarmup = 0.5;
constexpr double kRoundWarmup = 0.2;
/// Share of --seconds given to the write phase.
constexpr double kWritePhaseShare = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && find_workload(a.workload) != nullptr && a.seconds >= 1 &&
         a.seconds <= 600 && a.trace >= 0;
}

std::vector<Metric> run_end_to_end(const WorkloadSpec& spec, const FileImage& image,
                                   const Oracle& oracle, std::uint64_t seed, double seconds,
                                   Tallies& tallies) {
  std::vector<double> setup_s;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d.cluster.reset();  // never two clusters at once
    const double t0 = now_seconds();
    d = deploy(spec, image);
    setup_s.push_back(now_seconds() - t0);
  }

  const double main_s = (1 - kWritePhaseShare) * seconds / kRounds;
  const double write_s = kWritePhaseShare * seconds / kRounds;
  PhaseResult main;
  PhaseResult writes;
  for (int r = 0; r < kRounds; ++r) {
    append(main, run_phase(d, spec, oracle, PhaseKind::kMain, r == 0 ? kWarmup : kRoundWarmup,
                           main_s, false, seed, 10 + 2 * r, tallies));
    append(writes, run_phase(d, spec, oracle, PhaseKind::kWrite, kRoundWarmup, write_s, false,
                             seed, 11 + 2 * r, tallies));
  }
  verify_readback(d, image, tallies);
  // Before the metrics are computed: the peak is the workload's, not the
  // benchmark's own sorting of latency samples.
  const double peak_rss_mb = peak_rss_mib();

  std::printf("%s: %llu reads in %zu windows of %.3f s with %.3f CPU-s; %llu writes in %zu "
              "windows; setup %d times\n",
              spec.name.c_str(), static_cast<unsigned long long>(main.total.reads),
              main.windows.size(), main.total.seconds / static_cast<double>(main.windows.size()),
              main.total.cpu_seconds, static_cast<unsigned long long>(writes.total.writes),
              writes.windows.size(), kSetups);
  std::printf("%s: reads/s by window:", spec.name.c_str());
  for (const auto& w : main.windows) std::printf(" %.0f", static_cast<double>(w.reads) / w.seconds);
  std::printf("\n");
  // Every metric below is the median over the phase's windows of a
  // per-window figure, so a stall of the host moves one window, not the
  // result.
  auto median = [](std::vector<double> v) { return quantile(v, 0.5); };
  // A per-window figure of every window of the phase.
  auto per_window = [](const PhaseResult& phase, auto figure) {
    std::vector<double> v;
    for (const auto& w : phase.windows) v.push_back(figure(w));
    return v;
  };
  // The q-quantile of each window's latency samples, for windows with
  // enough samples that the quantile is one of them rather than the max.
  auto window_latency = [](const PhaseResult& phase, std::vector<float> Window::*samples,
                            double q) {
    std::vector<double> v;
    for (const auto& w : phase.windows) {
      std::vector<float> s = w.*samples;
      if (static_cast<double>(s.size()) * (1 - q) >= 2) v.push_back(quantile(s, q));
    }
    return v;
  };
  auto reads_per_s = [](const Window& w) { return static_cast<double>(w.reads) / w.seconds; };
  auto writes_per_s = [](const Window& w) { return static_cast<double>(w.writes) / w.seconds; };
  auto cpu_per_op = [](const Window& w) {
    return w.cpu_seconds * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, w.reads + w.writes));
  };
  return {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"read_ops_per_s", median(per_window(main, reads_per_s)), "ops/s"},
      {"read_p50_us", median(window_latency(main, &Window::read_us, 0.5)), "us"},
      {"read_p99_us", median(window_latency(main, &Window::read_us, 0.99)), "us"},
      {"write_ops_per_s", median(per_window(writes, writes_per_s)), "ops/s"},
      {"write_p50_us", median(window_latency(writes, &Window::write_us, 0.5)), "us"},
      {"write_p99_us", median(window_latency(writes, &Window::write_us, 0.99)), "us"},
      {"cpu_us_per_op", median(per_window(main, cpu_per_op)), "us"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dosas_perfbench --workload <small_active|striped_rw|dosas_mix> "
                 "--seed <n> --seconds <1..600> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec& spec = *find_workload(args.workload);
  // Before any thread starts: threads inherit the restriction.
  const int cpu = restrict_to_cpus(spec.cpus);
  if (cpu < 0) {
    std::fprintf(stderr, "dosas_perfbench: cannot restrict the process to %d CPU(s)\n",
                 spec.cpus);
    return 1;
  }
  std::printf("workload %s, seed %llu, %.0f s, trace %d, nproc %u, run on CPUs %d-%d; %d reader "
              "thread(s) x %d in flight, 1 writer thread\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, std::thread::hardware_concurrency(), cpu, cpu + spec.cpus - 1,
              spec.readers, spec.depth);

  const FileImage image(args.seed, kFileSize);
  bool checks_ok = false;
  std::printf("%s\n", oracle_self_test(image, checks_ok).c_str());
  if (!checks_ok) return 1;
  const Oracle oracle(image, spec);
  dosas::obs::MetricsRegistry::global().set_enabled(spec.metrics);

  Tallies tallies;
  const std::vector<Metric> metrics =
      args.trace ? run_layers(spec, image, oracle, args.seed, args.seconds, tallies)
                 : run_end_to_end(spec, image, oracle, args.seed, args.seconds, tallies);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  const std::pair<const char*, const OpTally*> kinds[] = {
      {"read", &tallies.read}, {"write", &tallies.write},
      {"readback", &tallies.readback}, {"probe", &tallies.probe}};
  std::printf("operations:");
  for (const auto& [name, t] : kinds) {
    std::printf(" %s %llu attempted %llu failed;", name,
                static_cast<unsigned long long>(t->attempted.load()),
                static_cast<unsigned long long>(t->failed.load()));
    attempted += t->attempted.load();
    failed += t->failed.load();
    wrong += t->wrong.load();
  }
  std::printf("\n");
  for (const auto& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": " + std::string(wrong == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dosas_perfbench: %s\n", e.what());
    return 1;
  }
}
