// test_ring.cpp — the lock-free MPMC ring (src/common/ring.hpp).
//
// The ring replaces the mutex Channel on the storage-server dispatch and
// scale-harness completer paths, so it must honor the exact contracts the
// runtime leans on: FIFO per producer, close-then-drain (a send() that
// returned true is ALWAYS drained), tri-state polling, and Clock-seam
// parking so a blocked worker counts as quiescent under a VirtualClock.
//
// The close-then-drain and park/wake contracts run twice: on rings built
// by this (multi-CPU) thread, which spin before parking, and on rings
// built while the thread was confined to one CPU, which park at once
// (spin budget 0) — then raced from threads free to use every CPU.
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/ring.hpp"

namespace dosas {
namespace {

/// Confines the calling thread to the first CPU it may use and restores
/// its affinity on destruction. confined() is false where thread affinity
/// is unavailable.
class SingleCpuScope {
 public:
  SingleCpuScope() {
#if defined(__linux__)
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      confined_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
#endif
  }
  ~SingleCpuScope() {
#if defined(__linux__)
    if (confined_) sched_setaffinity(0, sizeof(saved_), &saved_);
#endif
  }
  SingleCpuScope(const SingleCpuScope&) = delete;
  SingleCpuScope& operator=(const SingleCpuScope&) = delete;

  bool confined() const { return confined_; }

 private:
  bool confined_ = false;
#if defined(__linux__)
  cpu_set_t saved_;
#endif
};

/// A ring constructed while this thread runs on one CPU; null where the
/// thread cannot be confined. The affinity is restored before returning.
template <typename R>
std::unique_ptr<R> built_on_one_cpu(std::size_t capacity) {
  SingleCpuScope one_cpu;
  if (!one_cpu.confined()) return nullptr;
  return std::make_unique<R>(capacity);
}

// ------------------------------------------------------------ contracts
//
// Shared bodies, each run on a default ring and on a one-CPU ring.

template <typename R>
void close_drains_then_signals(R& ring) {
  ring.send(7);
  ring.close();
  EXPECT_FALSE(ring.send(8));
  EXPECT_FALSE(ring.try_send(9));
  EXPECT_EQ(ring.receive().value(), 7);
  EXPECT_FALSE(ring.receive().has_value());
}

template <typename R>
void close_wakes_blocked_receiver(R& ring) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::thread t([&] {
    ClockParticipant participant;
    auto v = ring.receive();
    EXPECT_FALSE(v.has_value());
  });
  // Deterministic rendezvous: once the clock counts the receiver as
  // blocked it is parked inside receive() — no wall-clock sleep needed.
  while (vc.status().blocked < 1) std::this_thread::yield();
  ring.close();
  t.join();
}

/// `ring` has capacity 2.
template <typename R>
void close_while_full_unblocks_producer(R& ring) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  ASSERT_TRUE(ring.try_send(1));
  ASSERT_TRUE(ring.try_send(2));
  std::atomic<int> send_result{-1};
  std::thread t([&] {
    ClockParticipant participant;
    send_result.store(ring.send(3) ? 1 : 0);
  });
  while (vc.status().blocked < 1) std::this_thread::yield();
  ring.close();
  t.join();
  // The blocked send observed the close and failed; the pre-close items
  // are still drainable.
  EXPECT_EQ(send_result.load(), 0);
  EXPECT_EQ(ring.receive().value(), 1);
  EXPECT_EQ(ring.receive().value(), 2);
  EXPECT_FALSE(ring.receive().has_value());
}

template <typename R>
void parked_consumer_is_quiescent(R& ring) {
  VirtualClock vc;
  ScopedClockOverride override_clock(vc);
  std::thread consumer([&] {
    ClockParticipant participant;
    auto v = ring.receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
  });
  while (vc.status().blocked < 1) std::this_thread::yield();
  {
    // With the consumer parked in the ring (no deadline), a sleeping
    // participant is the only armed deadline — virtual time must jump
    // straight to it. This is the DST quiescence property the ring's
    // parking fallback exists to preserve.
    ClockParticipant me;
    const Seconds before = vc.now();
    clock().sleep(5.0);
    EXPECT_GE(vc.now(), before + 5.0);
  }
  ring.send(42);
  consumer.join();
}

/// `ring` is small (64): exercises the full/park paths.
template <typename R>
void mpmc_delivers_every_item_exactly_once(R& ring) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = ring.receive()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ring.send(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  ring.close();
  for (auto& t : consumers) t.join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value delivered once

  const RingStats stats = ring.stats();
  EXPECT_GE(stats.push_attempts, static_cast<std::uint64_t>(n));
  EXPECT_GE(stats.pop_attempts, static_cast<std::uint64_t>(n));
}

template <typename R>
void every_successful_send_is_drained_across_close(R& ring) {
  // The contract StorageServer::launch_or_reject depends on: if submit
  // (send) returned true, the task WILL be picked up. Close the ring
  // while producers are mid-stream and check accepted == received.
  constexpr int kProducers = 4;
  constexpr int kAttemptsPerProducer = 4000;
  std::atomic<int> accepted{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (ring.receive()) received.fetch_add(1);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerProducer; ++i) {
        if (ring.send(i)) accepted.fetch_add(1);
      }
    });
  }
  clock().sleep(0.002);  // let the stream run, then yank the plug
  ring.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(received.load(), accepted.load());
  EXPECT_LE(accepted.load(), kProducers * kAttemptsPerProducer);
}

/// `ring` has capacity 4.
void spsc_order_close_drain_and_poll(SpscRing<int>& ring) {
  ring.send(1);
  ring.send(2);
  EXPECT_EQ(ring.receive().value(), 1);

  std::optional<int> out;
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);
  EXPECT_EQ(out.value(), 2);
  EXPECT_EQ(ring.poll(out), QueuePoll::kEmpty);

  ring.send(3);
  ring.close();
  EXPECT_FALSE(ring.send(4));
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);  // drain continues past close
  EXPECT_EQ(out.value(), 3);
  EXPECT_EQ(ring.poll(out), QueuePoll::kClosed);
}

/// `ring` is small (64): exercises the full/park paths.
void spsc_stress_in_order_without_cas_retries(SpscRing<int>& ring) {
  constexpr int kItems = 200'000;
  std::atomic<long> sum{0};
  std::thread consumer([&] {
    int expected = 0;
    while (auto v = ring.receive()) {
      ASSERT_EQ(*v, expected);  // strict FIFO, nothing lost or reordered
      ++expected;
      sum.fetch_add(*v);
    }
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ring.send(i));
  ring.close();
  consumer.join();

  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems - 1) / 2);
  const RingStats stats = ring.stats();
  EXPECT_GE(stats.push_attempts, static_cast<std::uint64_t>(kItems));
  // The whole point of the specialization: single producer and single
  // consumer never contend on a cursor, so the CAS claim loop is gone.
  EXPECT_EQ(stats.push_cas_retries, 0u);
  EXPECT_EQ(stats.pop_cas_retries, 0u);
}

// ------------------------------------------------------------ MPMC ring

TEST(Ring, SendReceiveOrder) {
  Ring<int> ring(8);
  ring.send(1);
  ring.send(2);
  ring.send(3);
  EXPECT_EQ(ring.receive().value(), 1);
  EXPECT_EQ(ring.receive().value(), 2);
  EXPECT_EQ(ring.receive().value(), 3);
}

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  Ring<int> a(3);
  EXPECT_EQ(a.capacity(), 4u);
  Ring<int> b(8);
  EXPECT_EQ(b.capacity(), 8u);
  Ring<int> c(1);
  EXPECT_EQ(c.capacity(), 2u);
}

TEST(Ring, TrySendFailsWhenFull) {
  Ring<int> ring(2);
  EXPECT_TRUE(ring.try_send(1));
  EXPECT_TRUE(ring.try_send(2));
  EXPECT_FALSE(ring.try_send(3));
  EXPECT_EQ(ring.size(), 2u);
}

TEST(Ring, PollTriState) {
  Ring<int> ring(4);
  std::optional<int> out;
  EXPECT_EQ(ring.poll(out), QueuePoll::kEmpty);
  EXPECT_FALSE(out.has_value());

  ring.send(7);
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);
  EXPECT_EQ(out.value(), 7);

  ring.send(8);
  ring.close();
  EXPECT_EQ(ring.poll(out), QueuePoll::kItem);  // drain continues past close
  EXPECT_EQ(out.value(), 8);
  EXPECT_EQ(ring.poll(out), QueuePoll::kClosed);
  EXPECT_FALSE(out.has_value());
}

TEST(Ring, CloseDrainsThenSignals) {
  Ring<int> ring(4);
  close_drains_then_signals(ring);
}

TEST(Ring, CloseWakesBlockedReceiver) {
  Ring<int> ring(4);
  close_wakes_blocked_receiver(ring);
}

TEST(Ring, CloseWhileFullUnblocksProducer) {
  Ring<int> ring(2);
  close_while_full_unblocks_producer(ring);
}

TEST(Ring, ParkedConsumerIsQuiescentUnderVirtualClock) {
  Ring<int> ring(4);
  parked_consumer_is_quiescent(ring);
}

TEST(Ring, MpmcDeliversEveryItemExactlyOnce) {
  Ring<int> ring(64);
  mpmc_delivers_every_item_exactly_once(ring);
}

TEST(Ring, EverySuccessfulSendIsDrainedAcrossConcurrentClose) {
  Ring<int> ring(32);
  every_successful_send_is_drained_across_close(ring);
}

TEST(Ring, SpinBudgetFollowsTheConstructingThreadsCpus) {
  SpscRing<int> before(4);
  auto confined = built_on_one_cpu<Ring<int>>(4);
  if (!confined) {
    GTEST_SKIP() << "thread CPU affinity unavailable";
  }
  // One CPU: nothing can fill the ring while we spin, so park at once.
  EXPECT_EQ(confined->spin_budget(), 0);
  // The affinity is back: a ring built now spins like one built before.
  Ring<int> after(4);
  EXPECT_EQ(after.spin_budget(), before.spin_budget());
#if defined(__linux__)
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  ASSERT_EQ(sched_getaffinity(0, sizeof(cpus), &cpus), 0);
  if (CPU_COUNT(&cpus) > 1) {
    EXPECT_GT(after.spin_budget(), 0);
  }
#endif
}

// ------------------------------------------------------------ SPSC variant
//
// SpscRing shares the MPMC ring's storage, parking, and close-then-drain
// machinery; what changes is cursor claiming (plain release stores, no CAS
// loop). These tests pin the shared contracts on the specialized code path
// and the one new invariant: no CAS retries, ever.

TEST(SpscRing, OrderCloseDrainAndPollContractsHold) {
  SpscRing<int> ring(4);
  spsc_order_close_drain_and_poll(ring);
}

TEST(SpscRing, StressDeliversEveryItemInOrderWithoutCasRetries) {
  SpscRing<int> ring(64);
  spsc_stress_in_order_without_cas_retries(ring);
}

TEST(SpscRing, ParkedConsumerIsQuiescentUnderVirtualClock) {
  // The scale harness parks completer threads in SPSC receive() under a
  // VirtualClock; a parked consumer must count as quiescent or virtual
  // time stalls (the DST property test_scale leans on).
  SpscRing<int> ring(4);
  parked_consumer_is_quiescent(ring);
}

TEST(SpscRing, CloseWakesBlockedConsumerAndFullProducer) {
  SpscRing<int> ring(2);
  close_while_full_unblocks_producer(ring);
}

TEST(SpscRing, MoveOnlyItemsFlowThrough) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ring.send(std::make_unique<int>(5));
  auto v = ring.receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(Ring, MoveOnlyItemsFlowThrough) {
  Ring<std::unique_ptr<int>> ring(4);
  ring.send(std::make_unique<int>(5));
  auto v = ring.receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(Ring, DestructorReleasesUndrainedItems) {
  // Leak check (ASan tier): items still in slots when the ring dies must
  // be destroyed.
  auto ring = std::make_unique<Ring<std::vector<int>>>(8);
  ring->send(std::vector<int>(1024, 7));
  ring->send(std::vector<int>(2048, 9));
  ring.reset();
}

// ------------------------------------------------------------ one-CPU rings
//
// The same contracts on rings that never spin: every miss parks through
// the Clock seam at once, so the park/wake handshake carries all traffic.

#define ONE_CPU_RING(type, name, capacity)              \
  auto name = built_on_one_cpu<type>(capacity);         \
  if (!name) {                                          \
    GTEST_SKIP() << "thread CPU affinity unavailable";  \
  }                                                     \
  ASSERT_EQ(name->spin_budget(), 0)

TEST(RingOneCpu, CloseDrainsThenSignals) {
  ONE_CPU_RING(Ring<int>, ring, 4);
  close_drains_then_signals(*ring);
}

TEST(RingOneCpu, CloseWakesBlockedReceiver) {
  ONE_CPU_RING(Ring<int>, ring, 4);
  close_wakes_blocked_receiver(*ring);
}

TEST(RingOneCpu, CloseWhileFullUnblocksProducer) {
  ONE_CPU_RING(Ring<int>, ring, 2);
  close_while_full_unblocks_producer(*ring);
}

TEST(RingOneCpu, ParkedConsumerIsQuiescentUnderVirtualClock) {
  ONE_CPU_RING(Ring<int>, ring, 4);
  parked_consumer_is_quiescent(*ring);
}

TEST(RingOneCpu, MpmcDeliversEveryItemExactlyOnce) {
  ONE_CPU_RING(Ring<int>, ring, 64);
  mpmc_delivers_every_item_exactly_once(*ring);
}

TEST(RingOneCpu, EverySuccessfulSendIsDrainedAcrossConcurrentClose) {
  ONE_CPU_RING(Ring<int>, ring, 32);
  every_successful_send_is_drained_across_close(*ring);
}

TEST(SpscRingOneCpu, OrderCloseDrainAndPollContractsHold) {
  ONE_CPU_RING(SpscRing<int>, ring, 4);
  spsc_order_close_drain_and_poll(*ring);
}

TEST(SpscRingOneCpu, StressDeliversEveryItemInOrderWithoutCasRetries) {
  ONE_CPU_RING(SpscRing<int>, ring, 64);
  spsc_stress_in_order_without_cas_retries(*ring);
}

TEST(SpscRingOneCpu, ParkedConsumerIsQuiescentUnderVirtualClock) {
  ONE_CPU_RING(SpscRing<int>, ring, 4);
  parked_consumer_is_quiescent(*ring);
}

TEST(SpscRingOneCpu, CloseWakesBlockedConsumerAndFullProducer) {
  ONE_CPU_RING(SpscRing<int>, ring, 2);
  close_while_full_unblocks_producer(*ring);
}

#undef ONE_CPU_RING

}  // namespace
}  // namespace dosas
