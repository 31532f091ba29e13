#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace bb::sim {
namespace {

using namespace bb::literals;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePs::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CallbackRunsAtScheduledTime) {
  Simulator sim;
  TimePs observed;
  sim.call_at(10_ns, [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, 10_ns);
  EXPECT_EQ(sim.now(), 10_ns);
}

TEST(Simulator, CallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.call_at(30_ns, [&] { order.push_back(3); });
  sim.call_at(10_ns, [&] { order.push_back(1); });
  sim.call_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.call_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, DelayAdvancesProcessTime) {
  Simulator sim;
  std::vector<double> times;
  sim.spawn([](Simulator& s, std::vector<double>& out) -> Task<void> {
    out.push_back(s.now().to_ns());
    co_await s.delay(100_ns);
    out.push_back(s.now().to_ns());
    co_await s.delay(50_ns);
    out.push_back(s.now().to_ns());
  }(sim, times));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{0.0, 100.0, 150.0}));
}

TEST(Simulator, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  auto proc = [](Simulator& s, std::vector<std::string>& out,
                 std::string name, TimePs step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      out.push_back(name + "@" + std::to_string(s.now().ps()));
    }
  };
  sim.spawn(proc(sim, log, "a", 10_ns));
  sim.spawn(proc(sim, log, "b", 15_ns));
  sim.run();
  // At the 30 ns tie, "b" armed its delay earlier (at t=15) than "a" (at
  // t=20), so FIFO tie-breaking runs b first.
  EXPECT_EQ(log, (std::vector<std::string>{
                     "a@10000", "b@15000", "a@20000", "b@30000", "a@30000",
                     "b@45000"}));
}

TEST(Simulator, NestedTaskAwaitReturnsValue) {
  Simulator sim;
  int result = 0;
  auto leaf = [](Simulator& s) -> Task<int> {
    co_await s.delay(7_ns);
    co_return 42;
  };
  sim.spawn([](Simulator& s, int& out,
               auto mk) -> Task<void> {
    out = co_await mk(s);
    out += static_cast<int>(s.now().to_ns());
  }(sim, result, leaf));
  sim.run();
  EXPECT_EQ(result, 49);  // 42 + 7 ns elapsed
}

TEST(Simulator, DeeplyNestedAwaitChain) {
  Simulator sim;
  // Each level adds 1 ns; validates symmetric transfer does not blow the
  // stack and times accumulate correctly.
  struct Rec {
    static Task<int> go(Simulator& s, int depth) {
      co_await s.delay(1_ns);
      if (depth == 0) co_return 0;
      co_return 1 + co_await go(s, depth - 1);
    }
  };
  int result = -1;
  sim.spawn([](Simulator& s, int& out) -> Task<void> {
    out = co_await Rec::go(s, 5000);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 5000);
  EXPECT_EQ(sim.now(), 5001_ns);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.spawn([](Simulator& s, int& c) -> Task<void> {
    for (;;) {
      co_await s.delay(10_ns);
      ++c;
    }
  }(sim, count));
  sim.run_until(95_ns);
  EXPECT_EQ(count, 9);
  EXPECT_EQ(sim.now(), 95_ns);
  sim.run_until(100_ns);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RootProcessExceptionPropagates) {
  Simulator sim;
  sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, NestedTaskExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  auto leaf = [](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("inner");
  };
  sim.spawn([](Simulator& s, bool& c, auto mk) -> Task<void> {
    try {
      co_await mk(s);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, caught, leaf));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, SuspendedProcessesDestroyedCleanly) {
  // A process blocked forever must not leak or crash at teardown.
  auto sim = std::make_unique<Simulator>();
  sim->spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(TimePs(INT64_MAX / 2));
  }(*sim));
  sim->step();  // start the process so it suspends in the delay
  sim.reset();  // must destroy the suspended frame without UB
}

TEST(Simulator, EventsProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.call_at(TimePs(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, RngDeterministicPerSeed) {
  Simulator a(7), b(7), c(8);
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  Simulator d(8);
  EXPECT_EQ(c.rng().next_u64(), d.rng().next_u64());
}

TEST(Timer, FiresAtArmedTimeAsOneEvent) {
  Simulator sim;
  TimePs fired_at;
  auto fn = [](void* ctx) {
    auto* p = static_cast<std::pair<Simulator*, TimePs*>*>(ctx);
    *p->second = p->first->now();
  };
  std::pair<Simulator*, TimePs*> ctx{&sim, &fired_at};
  Timer t(sim, fn, &ctx);
  t.arm(40_ns);
  EXPECT_TRUE(t.armed());
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired_at, 40_ns);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Timer, CancelLeavesNoEventBehind) {
  // A cancelled timer must neither run, count, nor move now() when the
  // queue drains -- the stale-event hazard a call_at would leave.
  Simulator sim;
  int fired = 0;
  Timer t(sim, [](void* c) { ++*static_cast<int*>(c); }, &fired);
  t.arm(1_us);
  sim.call_at(10_ns, [&] { t.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 10_ns);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(Timer, RearmMovesTheSingleWakeup) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [](void* c) { ++*static_cast<int*>(c); }, &fired);
  t.arm(100_ns);
  t.arm(30_ns);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Timer, OrdersWithEventsByTimeThenScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int id;
  };
  auto fn = [](void* c) {
    auto* x = static_cast<Ctx*>(c);
    x->order->push_back(x->id);
  };
  Ctx c1{&order, 1}, c3{&order, 3}, c5{&order, 5};
  Timer t1(sim, fn, &c1), t3(sim, fn, &c3), t5(sim, fn, &c5);
  sim.call_at(20_ns, [&] { order.push_back(0); });  // scheduled first
  t1.arm(20_ns);
  sim.call_at(20_ns, [&] { order.push_back(2); });
  t3.arm(20_ns);
  t5.arm(5_ns);
  sim.call_at(5_ns, [&] { order.push_back(6); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 6, 0, 1, 2, 3}));
}

TEST(Timer, RunUntilStopsBeforeALaterTimer) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [](void* c) { ++*static_cast<int*>(c); }, &fired);
  t.arm(50_ns);
  sim.run_until(49_ns);
  EXPECT_EQ(fired, 0);
  sim.run_until(50_ns);
  EXPECT_EQ(fired, 1);
}

TEST(Timer, ManyTimersFireInOrderAfterCancellations) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  struct Ctx {
    Simulator* sim;
    std::vector<std::int64_t>* fired;
  } ctx{&sim, &fired};
  auto fn = [](void* c) {
    auto* x = static_cast<Ctx*>(c);
    x->fired->push_back(x->sim->now().ps());
  };
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 20; ++i) {
    timers.push_back(std::make_unique<Timer>(sim, fn, &ctx));
    timers.back()->arm(TimePs((i * 7919) % 101 + 1));
  }
  for (int i = 0; i < 20; i += 3) timers[static_cast<std::size_t>(i)]->cancel();
  sim.run();
  EXPECT_EQ(fired.size(), 13u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, ParkedCountsProcessesOffTheQueue) {
  Simulator sim;
  EXPECT_EQ(sim.parked(), 0u);
  sim.note_parked();
  EXPECT_EQ(sim.parked(), 1u);
  sim.note_unparked();
  EXPECT_EQ(sim.parked(), 0u);
}

}  // namespace
}  // namespace bb::sim
