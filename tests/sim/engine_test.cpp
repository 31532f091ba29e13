// Regression tests for the simulator's event core: steady-state dispatch
// must be heap-allocation-free (pops never move or allocate), the event
// limit must be a real always-on error, and the three queue sources (ready
// ring, monotone run, timer heap) must preserve the global (time, seq)
// order exactly.
//
// This binary installs counting global `operator new`/`delete` hooks; it
// is kept separate from `test_sim` so the hooks cannot perturb other
// tests.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/deferred.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

// The replacement operators below route through these two helpers, so
// every new and delete pairs one malloc with one free.
void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace bb::sim {
namespace {

TEST(EngineAlloc, SteadyStateDispatchIsHeapAllocationFree) {
  Simulator sim;
  int hits = 0;
  // Each wave schedules capturing callbacks (pooled nodes) at strictly
  // increasing future times (monotone run queue) and drains them.
  const auto wave = [&] {
    for (int i = 0; i < 500; ++i) {
      sim.call_at(sim.now() + TimePs(i + 1), [&hits] { ++hits; });
    }
    sim.run();
  };
  wave();  // warm: grows the node pool and the run queue once
  const std::size_t chunks = sim.event_pool_chunks();
  const std::uint64_t allocs = g_heap_allocs.load();
  for (int w = 0; w < 8; ++w) wave();
  EXPECT_EQ(hits, 9 * 500);
  EXPECT_EQ(g_heap_allocs.load(), allocs) << "dispatch hot path allocated";
  EXPECT_EQ(sim.event_pool_chunks(), chunks) << "node pool kept growing";
}

TEST(EngineAlloc, ElidedEventLedgerIsHeapAllocationFreeOnceWarm) {
  Simulator sim;
  int ran = 0;
  Deferred<int> ledger(
      sim, [](void* n, TimePs, const int&) { ++*static_cast<int*>(n); },
      &ran);
  // Each wave's events push entries a little ahead of themselves and
  // settle the ones already passed, as a PCIe link does with its DLLPs.
  const auto wave = [&] {
    for (int i = 0; i < 500; ++i) {
      sim.call_at(sim.now() + TimePs(10 * (i + 1)), [&, i] {
        ledger.settle();
        ledger.push(sim.now() + TimePs(25), i);
      });
    }
    sim.run();
  };
  wave();  // warm: grows the ring to the largest backlog once
  const std::uint64_t allocs = g_heap_allocs.load();
  for (int w = 0; w < 8; ++w) wave();
  EXPECT_EQ(ran, 9 * 500);
  EXPECT_EQ(g_heap_allocs.load(), allocs) << "elided-event ledger allocated";
}

TEST(EngineAlloc, ReadyRingResumeIsHeapAllocationFree) {
  Simulator sim;
  // Every zero delay resumes the process through the ready ring.
  auto spinner = [](Simulator& s, int iters) -> Task<void> {
    for (int i = 0; i < iters; ++i) co_await s.delay(TimePs::zero());
  };
  // Warm-up grows the ready ring and the frame pool.
  sim.spawn(spinner(sim, 64));
  sim.run();
  const std::uint64_t allocs = g_heap_allocs.load();
  // Steady state: only the spawn bookkeeping may allocate (roots vector
  // + name), so measure from after the spawn.
  sim.spawn(spinner(sim, 4096));
  const std::uint64_t after_spawn = g_heap_allocs.load();
  const std::uint64_t events = sim.events_processed();
  sim.run();
  EXPECT_EQ(sim.events_processed() - events, 4096u + 1u);
  EXPECT_EQ(sim.now(), TimePs::zero());
  EXPECT_EQ(g_heap_allocs.load(), after_spawn)
      << "ready-ring resume hot path allocated";
  // And the spawn itself must not have paid for a fresh frame.
  EXPECT_LE(after_spawn - allocs, 2u);
}

TEST(EngineAlloc, CoroutineFramesAreRecycledAcrossSimulators) {
  const auto run_one = [] {
    Simulator sim;
    sim.spawn([](Simulator& s) -> Task<void> {
      co_await s.delay(TimePs(1));
    }(sim));
    sim.run();
  };
  run_one();  // first run may create fresh frame blocks
  const auto before = detail::frame_pool_stats();
  run_one();
  const auto after = detail::frame_pool_stats();
  EXPECT_GT(after.reused, before.reused);
  EXPECT_EQ(after.fresh, before.fresh)
      << "identical frame size should come from the pool";
}

TEST(EngineNodes, OversizedCallablesAreBoxedAndCounted) {
  Simulator sim;
  std::array<char, 256> big{};
  big[0] = 7;
  char seen = 0;
  const std::uint64_t before = detail::EventNode::boxed_events();
  sim.call_at(TimePs(1), [big, &seen] { seen = big[0]; });
  sim.run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(detail::EventNode::boxed_events(), before + 1);
}

TEST(EngineLimit, RunawayCoroutineIsCaught) {
  Simulator sim;
  sim.set_event_limit(1000);
  sim.spawn([](Simulator& s) -> Task<void> {
    for (;;) co_await s.delay(TimePs(1));
  }(sim));
  EXPECT_THROW(sim.run(), EventLimitError);
  // The throw happens on the (limit+1)-th event, in every build type.
  EXPECT_EQ(sim.events_processed(), 1001u);
}

TEST(EngineLimit, RunawaySelfReschedulingCallbackIsCaught) {
  Simulator sim;
  sim.set_event_limit(100);
  struct Resched {
    Simulator* s;
    void operator()() const {
      s->call_in(TimePs(1), Resched{s});
    }
  };
  sim.call_in(TimePs(1), Resched{&sim});
  try {
    sim.run();
    FAIL() << "expected EventLimitError";
  } catch (const EventLimitError& e) {
    EXPECT_EQ(e.limit(), 100u);
  }
}

TEST(EngineOrder, MixedQueueSourcesPreserveGlobalOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto mark = [&order](int id) { return [&order, id] { order.push_back(id); }; };
  sim.call_at(TimePs(0), mark(0));   // (t=0,  seq=0)  ready ring
  sim.call_at(TimePs(10), mark(1));  // (t=10, seq=1)  monotone run
  sim.call_at(TimePs(20), mark(2));  // (t=20, seq=2)  monotone run
  sim.call_at(TimePs(5), mark(3));   // (t=5,  seq=3)  heap (out of order)
  sim.call_at(TimePs(15), mark(4));  // (t=15, seq=4)  heap
  sim.call_at(TimePs(10), mark(5));  // (t=10, seq=5)  heap (ties with 1)
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 5, 4, 2}));
}

TEST(EngineOrder, PreScheduledEventRunsBeforeSameTimeRingPush) {
  Simulator sim;
  std::vector<int> order;
  // Event 0 runs at t=10 and schedules event 2 at the current time (ready
  // ring). Event 1 was scheduled earlier for t=10 with a smaller seq, so
  // it must still run before event 2.
  sim.call_at(TimePs(10), [&] {
    order.push_back(0);
    sim.call_at(TimePs(10), [&] { order.push_back(2); });
  });
  sim.call_at(TimePs(10), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EngineOrder, RunUntilStopsAcrossAllSources) {
  Simulator sim;
  std::vector<int> order;
  sim.call_at(TimePs(30), [&] { order.push_back(3); });  // run
  sim.call_at(TimePs(40), [&] { order.push_back(4); });  // run
  sim.call_at(TimePs(25), [&] { order.push_back(2); });  // heap
  sim.run_until(TimePs(30));
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.now(), TimePs(30));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

}  // namespace
}  // namespace bb::sim
