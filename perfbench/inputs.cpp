#include "inputs.hpp"

#include <algorithm>
#include <limits>

#include "common/serialize.hpp"
#include "kernels/gaussian2d.hpp"
#include "kernels/sum.hpp"

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  Rng mix(seed ^ (purpose * 0xD1B54A32D192ED03ULL) ^ (index * 0x8CB92BA72F3D8DD7ULL));
  return mix.next();
}

FileImage::FileImage(std::uint64_t seed, Bytes size) : values_(size / sizeof(double)) {
  Rng rng(stream_seed(seed, 1, 0));
  for (auto& v : values_) v = static_cast<double>(rng.next() >> 54);  // [0, 1024)
  block_prefix_.assign(values_.size() / kBlock + 2, 0);
  for (std::size_t b = 0; b * kBlock < values_.size(); ++b) {
    std::uint64_t s = 0;
    for (std::size_t i = b * kBlock; i < std::min(values_.size(), (b + 1) * kBlock); ++i) {
      s += static_cast<std::uint64_t>(values_[i]);
    }
    block_prefix_[b + 1] = block_prefix_[b] + s;
  }
}

std::span<const std::uint8_t> FileImage::bytes(Bytes offset, Bytes length) const {
  const auto* base = reinterpret_cast<const std::uint8_t*>(values_.data());
  return {base + offset, static_cast<std::size_t>(length)};
}

std::uint64_t FileImage::range_sum(std::size_t first, std::size_t last) const {
  std::uint64_t s = 0;
  const std::size_t b0 = (first + kBlock - 1) / kBlock;
  const std::size_t b1 = last / kBlock;
  if (b0 >= b1) {
    for (std::size_t i = first; i < last; ++i) s += static_cast<std::uint64_t>(values_[i]);
    return s;
  }
  for (std::size_t i = first; i < b0 * kBlock; ++i) s += static_cast<std::uint64_t>(values_[i]);
  s += block_prefix_[b1] - block_prefix_[b0];
  for (std::size_t i = b1 * kBlock; i < last; ++i) s += static_cast<std::uint64_t>(values_[i]);
  return s;
}

SumExpect FileImage::sum(Bytes offset, Bytes length) const {
  const std::size_t first = offset / sizeof(double);
  const std::size_t last = std::min(values_.size(), (offset + length) / sizeof(double));
  return {last - first, static_cast<double>(range_sum(first, last))};
}

GaussianExpect FileImage::gaussian(Bytes offset, Bytes length, std::size_t width) const {
  GaussianExpect e;
  const std::size_t rows = length / (width * sizeof(double));
  if (rows < 3) return e;
  const double* grid = values_.data() + offset / sizeof(double);
  auto at = [&](std::size_t r, std::size_t x) {
    return static_cast<std::int64_t>(grid[r * width + x]);
  };
  std::int64_t total = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (std::size_t r = 1; r + 1 < rows; ++r) {
    for (std::size_t x = 0; x < width; ++x) {
      const std::size_t xl = x == 0 ? 0 : x - 1;
      const std::size_t xr = x + 1 == width ? x : x + 1;
      const std::int64_t v16 = at(r - 1, xl) + 2 * at(r - 1, x) + at(r - 1, xr) +
                               2 * at(r, xl) + 4 * at(r, x) + 2 * at(r, xr) +
                               at(r + 1, xl) + 2 * at(r + 1, x) + at(r + 1, xr);
      total += v16;
      lo = std::min(lo, v16);
      hi = std::max(hi, v16);
    }
  }
  e.rows = rows - 2;
  e.count = e.rows * width;
  e.sum = static_cast<double>(total) / 16.0;
  e.min = static_cast<double>(lo) / 16.0;
  e.max = static_cast<double>(hi) / 16.0;
  return e;
}

bool result_matches(std::span<const std::uint8_t> result, const Expect& expect) {
  if (expect.gaussian) {
    auto d = dosas::kernels::GaussianDigest::decode(result);
    if (!d.is_ok()) return false;
    const auto& g = d.value();
    const auto& e = expect.digest;
    return g.rows == e.rows && g.count == e.count && g.sum == e.sum && g.min == e.min &&
           g.max == e.max;
  }
  auto s = dosas::kernels::SumResult::decode(result);
  if (!s.is_ok()) return false;
  return s.value().count == expect.sum.count && s.value().sum == expect.sum.sum;
}

namespace {

/// The expected result encoded as the kernels encode theirs: little-endian
/// fields in declaration order (SumResult / GaussianDigest).
std::vector<std::uint8_t> encode(const Expect& e) {
  dosas::ByteWriter w;
  if (e.gaussian) {
    w.put_u64(e.digest.rows);
    w.put_u64(e.digest.count);
    w.put_f64(e.digest.sum);
    w.put_f64(e.digest.min);
    w.put_f64(e.digest.max);
  } else {
    w.put_u64(e.sum.count);
    w.put_f64(e.sum.sum);
  }
  return w.take();
}

/// Call `f` with every single-field perturbation of an encoded result: each
/// 8-byte field moved by one unit in its lowest byte, then the payload
/// truncated by one byte.
template <typename F>
void for_each_perturbation(const std::vector<std::uint8_t>& good, F&& f) {
  auto bad = good;
  for (std::size_t i = 0; i + 8 <= bad.size(); i += 8) {
    bad[i] ^= 1;
    f(std::span<const std::uint8_t>(bad));
    bad[i] ^= 1;
  }
  f(std::span<const std::uint8_t>(good).first(good.size() - 1));
}

}  // namespace

std::string oracle_self_test(const FileImage& image, bool& ok) {
  ok = true;
  OpTally tally;
  std::uint64_t cases = 0;

  const Bytes grid = 16 * 512 * sizeof(double);  // 16 rows of a width-512 grid
  const Expect expects[] = {
      Expect{false, image.sum(8, 4096), {}},
      Expect{true, {}, image.gaussian(0, grid, 512)},
  };
  for (const auto& expect : expects) {
    const auto good = encode(expect);
    if (!result_matches(good, expect)) ok = false;  // the check must accept the truth
    for_each_perturbation(good, [&](std::span<const std::uint8_t> bad) {
      tally.record(true, result_matches(bad, expect));
      ++cases;
    });
  }

  // Read-back: one flipped byte in a strip of file bytes.
  const auto want = image.bytes(4096, 4096);
  std::vector<std::uint8_t> got(want.begin(), want.end());
  got[123] ^= 0x40;
  tally.record(true, std::equal(got.begin(), got.end(), want.begin(), want.end()));
  ++cases;

  // An operation that returned an error is failed whatever its payload.
  const dosas::Result<std::vector<std::uint8_t>> errored =
      dosas::error(dosas::ErrorCode::kUnavailable, "self-test");
  tally.record(errored.is_ok(), true);
  ++cases;

  const auto attempted = tally.attempted.load();
  const auto failed = tally.failed.load();
  if (attempted != cases || failed != cases) ok = false;
  return "oracle self-test: " + std::to_string(failed) + " of " + std::to_string(attempted) +
         " perturbed results rejected and counted failed" + (ok ? "" : " -- CHECK BROKEN");
}

}  // namespace perfbench
