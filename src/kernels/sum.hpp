// sum.hpp — the SUM benchmark kernel (paper Table III).
//
// One addition per data item; the cheapest kernel in the paper, processing
// ~860 MB/s per core on the Discfarm testbed. Its result is a 16-byte
// (count, sum) record, so active execution reduces an x-byte read to a
// constant-size transfer: the regime where active storage always wins.
#pragma once

#include "kernels/kernel.hpp"

namespace dosas::kernels {

/// Decoded result payload of SumKernel::finalize().
struct SumResult {
  std::uint64_t count = 0;
  double sum = 0.0;

  static Result<SumResult> decode(std::span<const std::uint8_t> bytes);
};

class SumKernel final : public ItemwiseKernel {
 public:
  std::string name() const override { return "sum"; }
  std::vector<std::uint8_t> finalize() const override;
  Bytes result_size(Bytes input) const override;
  Checkpoint checkpoint() const override;
  Status restore(const Checkpoint& ck) override;
  std::unique_ptr<Kernel> clone() const override;
  bool mergeable() const override { return true; }
  Status merge(std::span<const std::uint8_t> other_result) override;

 protected:
  void reset_state() override {
    sum_ = 0.0;
    count_ = 0;
  }
  // The per-byte hot loop. Pinned to a cache-line boundary so its four
  // instructions sit in one 64-byte line wherever unrelated code moves it
  // (straddling two lines made 1 MiB striped sum reads ~12% slower).
  [[gnu::aligned(64)]] void process_items(std::span<const double> items) override {
    for (double v : items) sum_ += v;
    count_ += items.size();
  }

 private:
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

}  // namespace dosas::kernels
