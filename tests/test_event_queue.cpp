// sim::EventQueue — the timing-wheel vs binary-heap parity suite.  The
// wheel's whole claim is that it realises the same strict (tick, seq) pop
// order as a binary heap *structurally*, so every test here drives the
// wheel and a test-local reference heap through the same push/pop trace
// and asserts exact equality of the (tick, data, aux) pop sequence — not
// statistical similarity.  Covered adversaries: random tick spreads at
// every wheel level, same-tick floods, interleaved push-while-draining,
// far-horizon events that park in the overflow heap and cascade back in,
// and sparse far-apart timers that exercise the empty-wheel cursor jump.
// A final test pins the recycled-slab contract: replaying an identical
// trace on a warm queue performs zero heap allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc_hook.hpp"
#include "sim/event_queue.hpp"

namespace {

namespace sim = dirant::sim;
using dirant::test::count_allocations;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The reference queue: the textbook realisation of the strict
// (tick, push-order) order, with an explicit sequence number and O(log m)
// comparisons per push/pop.  `now()` is the last popped tick.
class HeapQueue {
 public:
  void reset() {
    heap_.clear();
    now_ = 0;
    seq_ = 0;
  }
  bool empty() const { return heap_.empty(); }
  std::uint64_t now() const { return now_; }

  void push(std::uint64_t tick, std::uint32_t data, std::uint32_t aux) {
    ASSERT_GE(tick, now_);
    heap_.push_back(Entry{tick, seq_++, data, aux});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  sim::EventQueue::Item pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    now_ = e.tick;
    return sim::EventQueue::Item{e.tick, e.data, e.aux};
  }

 private:
  struct Entry {
    std::uint64_t tick;
    std::uint64_t seq;
    std::uint32_t data;
    std::uint32_t aux;
  };
  static bool later(const Entry& a, const Entry& b) {
    return a.tick != b.tick ? a.tick > b.tick : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
};

struct Popped {
  std::uint64_t tick;
  std::uint32_t data;
  std::uint32_t aux;

  bool operator==(const Popped&) const = default;
};

// One adversarial trace: interleave seeded pushes (delta drawn from
// [0, spread], relative to the queue's current now()) with drain bursts,
// then drain the remainder.  `data` carries the push index, so an
// out-of-order pop — or any FIFO violation among equal ticks — shows up
// as a payload mismatch, not just a tick mismatch.
template <class Queue>
void run_trace(Queue& q, std::uint64_t seed, int pushes, std::uint64_t spread,
               int burst, std::vector<Popped>& out) {
  q.reset();
  out.clear();
  std::uint64_t ctr = seed;
  int pushed = 0;
  while (pushed < pushes || !q.empty()) {
    for (int i = 0; i < burst && pushed < pushes; ++i, ++pushed) {
      const std::uint64_t delta = splitmix64(++ctr) % (spread + 1);
      q.push(q.now() + delta, static_cast<std::uint32_t>(pushed),
             static_cast<std::uint32_t>(pushed ^ 0x55555555u));
    }
    const int pops = 1 + static_cast<int>(splitmix64(++ctr) % burst);
    for (int i = 0; i < pops && !q.empty(); ++i) {
      const sim::EventQueue::Item e = q.pop();
      out.push_back(Popped{e.tick, e.data, e.aux});
    }
  }
}

void expect_same_trace(std::uint64_t seed, int pushes, std::uint64_t spread,
                       int burst) {
  sim::EventQueue wheel;
  HeapQueue heap;
  std::vector<Popped> w, h;
  run_trace(wheel, seed, pushes, spread, burst, w);
  run_trace(heap, seed, pushes, spread, burst, h);
  ASSERT_EQ(w.size(), h.size());
  ASSERT_EQ(w.size(), static_cast<std::size_t>(pushes));
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i], h[i]) << "first divergence at pop " << i;
  }
  // Both queues saw the same interleaving, so the pop order must also be
  // sorted by tick (the FIFO part is already pinned by the payloads).
  for (std::size_t i = 1; i < w.size(); ++i) {
    ASSERT_LE(w[i - 1].tick, w[i].tick);
  }
}

// Spreads chosen to pin each mechanism: 0 (pure FIFO), 3 (single level-0
// window), 500 (level-1 cascades), 100000 (level-2 cascades), 2^26
// (overflow park + empty-wheel jump).
TEST(EventQueue, ParityAcrossTickSpreads) {
  expect_same_trace(/*seed=*/1, /*pushes=*/4000, /*spread=*/0, /*burst=*/7);
  expect_same_trace(2, 4000, 3, 5);
  expect_same_trace(3, 4000, 500, 9);
  expect_same_trace(4, 4000, 100000, 6);
  expect_same_trace(5, 2000, 1ull << 26, 4);
}

template <class Queue>
void same_tick_flood(Queue& q) {
  q.reset();
  q.push(41, 0xffffffffu, 0);
  for (std::uint32_t i = 0; i < 1000; ++i) q.push(42, i, ~i);
  ASSERT_EQ(q.pop().tick, 41u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const sim::EventQueue::Item e = q.pop();
    ASSERT_EQ(e.tick, 42u);
    ASSERT_EQ(e.data, i);
    ASSERT_EQ(e.aux, ~i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameTickFloodIsFifo) {
  sim::EventQueue wheel;
  HeapQueue heap;
  same_tick_flood(wheel);
  same_tick_flood(heap);
}

// Same-tick pushes arriving while the cursor's bucket is mid-drain must
// pop in push order after the already-queued events — the handler-
// schedules-at-now pattern the engine leans on.
template <class Queue>
void push_at_now_while_draining(Queue& q) {
  q.reset();
  q.push(7, 0, 0);
  q.push(7, 1, 0);
  ASSERT_EQ(q.pop().data, 0u);
  q.push(7, 2, 0);  // lands behind data=1 at the same tick
  q.push(8, 3, 0);
  ASSERT_EQ(q.pop().data, 1u);
  ASSERT_EQ(q.pop().data, 2u);
  ASSERT_EQ(q.pop().data, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushAtNowWhileDraining) {
  sim::EventQueue wheel;
  HeapQueue heap;
  push_at_now_while_draining(wheel);
  push_at_now_while_draining(heap);
}

// Far-horizon events must actually exercise the park/cascade machinery —
// the counters prove the trace went through the overflow heap and upper
// wheels, not some degenerate shortcut.
template <class Queue>
void far_horizon(Queue& q) {
  q.reset();
  // Beyond the 2^24-tick wheel span: parks in the overflow heap.
  q.push(1ull << 30, 100, 0);
  q.push((1ull << 30) + (1ull << 20), 101, 0);
  // Same top-level window, different level-1 slots: cascades on wrap.
  q.push(70000, 200, 0);
  q.push(300, 300, 0);
  EXPECT_EQ(q.pop().data, 300u);
  EXPECT_EQ(q.pop().data, 200u);
  // The wheels are now empty: the cursor jumps straight to the overflow
  // window instead of stepping 2^30 ticks.
  const sim::EventQueue::Item far1 = q.pop();
  EXPECT_EQ(far1.tick, 1ull << 30);
  EXPECT_EQ(far1.data, 100u);
  EXPECT_EQ(q.pop().data, 101u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarHorizonParksAndCascades) {
  sim::EventQueue wheel;
  HeapQueue heap;
  far_horizon(wheel);
  far_horizon(heap);
  EXPECT_GT(wheel.cascaded(), 0u);
  EXPECT_EQ(wheel.parked(), 2u);
}

// Sparse far-apart timers: every pop crosses several empty windows, and
// parked events keep their FIFO rank among equal ticks.
TEST(EventQueue, SparseTimersParity) {
  expect_same_trace(/*seed=*/11, /*pushes=*/600, /*spread=*/1ull << 28,
                    /*burst=*/3);
}

// The recycled-slab contract behind WarmRunIsAllocationFree: replaying an
// identical trace on a warm queue touches no allocator.
TEST(EventQueue, WarmReplayIsAllocationFree) {
  sim::EventQueue q;
  std::vector<Popped> out;
  const auto replay = [&] {
    run_trace(q, /*seed=*/17, /*pushes=*/3000, /*spread=*/40000,
              /*burst=*/8, out);
  };
  replay();  // cold: grows buckets and `out` to their peak occupancy
  EXPECT_EQ(count_allocations(replay), 0);
}

}  // namespace
