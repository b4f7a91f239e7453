// inputs.hpp — the benchmark's seeded inputs and the oracles that check
// the runtime's results.
//
// The benchmark file is a grid of integer-valued doubles in [0, 1024)
// drawn from a SplitMix64 stream keyed by the run's seed. Every expected
// result is computed here from those values, apart from the runtime:
//
//   * sum: (count, sum) of an extent from integer block prefix sums. The
//     values are integers, so the runtime's floating-point sum is exact and
//     must match bit for bit;
//   * gaussian2d digest: (rows, count, sum, min, max) from this file's own
//     3x3 1-2-1 stencil with clamped columns, in integer arithmetic. Every
//     filtered value is a multiple of 1/16 and every partial sum stays far
//     below 2^53, so the comparison is exact whatever the summation order;
//   * read-back: the file bytes themselves.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace perfbench {

using dosas::Bytes;
using dosas::operator""_KiB;
using dosas::operator""_MiB;

/// SplitMix64: the seed stream for file values and request choices.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, purpose, index): threads and phases draw
/// from separate streams so a run's inputs do not depend on scheduling.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index);

struct SumExpect {
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct GaussianExpect {
  std::uint64_t rows = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// The generated file and its oracles. Offsets and lengths are bytes and
/// must be multiples of 8 (whole doubles).
class FileImage {
 public:
  FileImage(std::uint64_t seed, Bytes size);

  Bytes size() const { return values_.size() * sizeof(double); }
  std::span<const std::uint8_t> bytes(Bytes offset, Bytes length) const;

  SumExpect sum(Bytes offset, Bytes length) const;
  GaussianExpect gaussian(Bytes offset, Bytes length, std::size_t width) const;

 private:
  static constexpr std::size_t kBlock = 64;  ///< values per prefix block
  std::uint64_t range_sum(std::size_t first, std::size_t last) const;

  std::vector<double> values_;
  std::vector<std::uint64_t> block_prefix_;  ///< sum of blocks [0, i)
};

/// One expected read result: which kernel ran over which file extent.
struct Expect {
  bool gaussian = false;
  SumExpect sum;
  GaussianExpect digest;
};

/// Check an encoded kernel result against its expectation (exact).
bool result_matches(std::span<const std::uint8_t> result, const Expect& expect);

/// Attempted/failed tally for one operation type. A failed operation is one
/// that returned an error or whose output an oracle rejected; the latter is
/// also counted as wrong, which makes the run incorrect.
struct OpTally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};

  /// `returned`: the call succeeded; `matches`: its output passed the check.
  void record(bool returned, bool matches) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!returned || !matches) failed.fetch_add(1, std::memory_order_relaxed);
    if (returned && !matches) wrong.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Feed every check a perturbed result and confirm each is rejected and
/// counted as failed. Returns a one-line report; `ok` is false when any
/// check accepted a wrong result.
std::string oracle_self_test(const FileImage& image, bool& ok);

}  // namespace perfbench
