#include "sim/deferred.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace bb::sim {
namespace {

using namespace bb::literals;

// Each entry's value is a label; running it appends the label.
struct Log {
  std::vector<int> order;
  static void append(void* log, TimePs, const int& v) {
    static_cast<Log*>(log)->order.push_back(v);
  }
};

TEST(Deferred, DrainRunsEntriesInTimeSeqOrderAndEndsAtTheLatest) {
  Simulator sim;
  Log log;
  Deferred<int> a(sim, &Log::append, &log);
  Deferred<int> b(sim, &Log::append, &log);
  a.push(20_ns, 2);
  b.push(10_ns, 1);
  b.push(20_ns, 3);  // same time as a's entry, reserved after it
  a.push(40_ns, 4);
  sim.run();
  EXPECT_EQ(log.order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 40_ns);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Deferred, SettleRunsOnlyEntriesAheadOfTheCurrentEvent) {
  Simulator sim;
  Log log;
  Deferred<int> d(sim, &Log::append, &log);
  std::vector<std::vector<int>> seen;
  sim.call_at(10_ns, [&] {
    d.settle();
    seen.push_back(log.order);
  });
  d.push(10_ns, 1);  // reserved after the event above: not yet due in it
  sim.call_at(10_ns, [&] {
    d.settle();
    seen.push_back(log.order);
  });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].empty());
  EXPECT_EQ(seen[1], (std::vector<int>{1}));
}

TEST(Deferred, PromotedEntriesRunAsEventsAtTheirReservedPlace) {
  Simulator sim;
  std::vector<int> order;
  Deferred<int> d(
      sim,
      [](void* o, TimePs, const int& v) {
        static_cast<std::vector<int>*>(o)->push_back(v);
      },
      &order);
  sim.call_at(30_ns, [&] { order.push_back(1); });
  d.push(30_ns, 2);
  sim.call_at(30_ns, [&] { order.push_back(3); });
  sim.call_at(5_ns, [&] { d.promote(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u);  // the promoted entry counts
}

TEST(Deferred, RunUntilSettlesEntriesUpToItsHorizon) {
  Simulator sim;
  Log log;
  Deferred<int> d(sim, &Log::append, &log);
  d.push(10_ns, 1);
  d.push(50_ns, 2);
  sim.run_until(20_ns);
  EXPECT_EQ(log.order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 20_ns);
  sim.run();
  EXPECT_EQ(log.order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 50_ns);
}

TEST(Deferred, NoteElidedMovesTheDrainedEndTime) {
  Simulator sim;
  sim.call_at(10_ns, [&] { sim.note_elided(25_ns); });
  sim.run();
  EXPECT_EQ(sim.now(), 25_ns);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Deferred, AnEntryThatQueuesAnEventHandsBackToTheQueue) {
  Simulator sim;
  struct Ctx {
    Simulator* sim;
    std::vector<int> order;
  } ctx{&sim, {}};
  Deferred<int> d(
      sim,
      [](void* p, TimePs, const int& v) {
        auto* c = static_cast<Ctx*>(p);
        c->order.push_back(v);
        if (v == 1) c->sim->call_in(5_ns, [c] { c->order.push_back(9); });
      },
      &ctx);
  d.push(10_ns, 1);
  d.push(30_ns, 2);
  sim.run();
  EXPECT_EQ(ctx.order, (std::vector<int>{1, 9, 2}));
  EXPECT_EQ(sim.now(), 30_ns);
}

}  // namespace
}  // namespace bb::sim
