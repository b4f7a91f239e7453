// layers.hpp — the traced run: per-layer metrics and the reconciliation
// table.
//
// The benchmark times and counts each layer from outside, through the
// layer's public functions, on the workload's own request shapes; the
// runtime is not instrumented for it. Client calls are spanned inside the
// concurrent workload; the other layers are probed one call at a time from
// a single thread, so each probe's process CPU per call is that layer's
// cost in isolation (with its children). The reconciliation subtracts each
// probe's children to get self-costs and sets their sum against the
// untraced workload's CPU per operation; the leftover is what running the
// layers together, at the workload's concurrency, adds.
#pragma once

#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Run `spec` with tracing for `seconds` and return every per-layer metric.
/// Prints the reconciliation table and every ratio with its base.
std::vector<Metric> run_layers(const WorkloadSpec& spec, const FileImage& image,
                               const Oracle& oracle, std::uint64_t seed, double seconds,
                               Tallies& tallies);

}  // namespace perfbench
