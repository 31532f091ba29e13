#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <span>

namespace bb::cpu {
namespace {

using namespace bb::literals;

CpuCostModel deterministic_model() {
  CpuCostModel m;
  m.strip_jitter();
  return m;
}

TEST(Core, ConsumeAccruesPendingNotSimTime) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  core.consume(100_ns);
  EXPECT_EQ(sim.now(), TimePs::zero());
  EXPECT_EQ(core.virtual_now(), 100_ns);
}

TEST(Core, FlushMaterializesPendingTime) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  double after = -1;
  sim.spawn([](sim::Simulator& s, Core& c, double& out) -> sim::Task<void> {
    c.consume(175.42_ns);
    co_await c.flush();
    out = s.now().to_ns();
  }(sim, core, after));
  sim.run();
  EXPECT_NEAR(after, 175.42, 1e-9);
}

TEST(Core, VirtualNowStableAcrossFlush) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  std::vector<double> vals;
  sim.spawn([](Core& c, std::vector<double>& out) -> sim::Task<void> {
    c.consume(50_ns);
    out.push_back(c.virtual_now().to_ns());
    co_await c.flush();
    out.push_back(c.virtual_now().to_ns());
  }(core, vals));
  sim.run();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_DOUBLE_EQ(vals[0], vals[1]);
}

TEST(Core, ConsumeSpecSamplesModel) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  const TimePs d = core.consume(core.costs().pio_copy_64b);
  EXPECT_NEAR(d.to_ns(), 94.25, 1e-9);
  EXPECT_NEAR(core.virtual_now().to_ns(), 94.25, 1e-9);
}

TEST(Core, SpeedFactorScalesSampledCosts) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  core.set_speed_factor(0.5);
  const TimePs d = core.consume(core.costs().pio_copy_64b);
  EXPECT_NEAR(d.to_ns(), 47.125, 1e-3);
  // Fixed durations are not scaled (they are already exact).
  core.set_speed_factor(1.0);
  core.consume(10_ns);
  EXPECT_NEAR(core.virtual_now().to_ns(), 57.125, 1e-3);
}

TEST(Core, BusyTimeAccumulates) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  core.consume(30_ns);
  core.consume(20_ns);
  EXPECT_EQ(core.busy_time(), 50_ns);
}

TEST(Core, EmptyFlushIsNoop) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  bool done = false;
  sim.spawn([](Core& c, bool& d) -> sim::Task<void> {
    co_await c.flush();
    d = true;
  }(core, done));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), TimePs::zero());
}

TEST(Core, ReplayDrawsExactlyAsConsume) {
  // Same seed, same costs: replay_until returns where the passes consumed
  // one at a time end, and both leave the RNG stream and busy time in the
  // same state -- at unit speed and scaled, with a cost whose hiccup tail
  // takes the per-sample path beside the batched lognormal ones.
  for (const double speed : {1.0, 0.93}) {
    sim::Simulator sim_a(11), sim_b(11);
    Core a(sim_a, CpuCostModel{});
    Core b(sim_b, CpuCostModel{});
    a.set_speed_factor(speed);
    b.set_speed_factor(speed);
    const CostSpec hiccup{40.0, 0.2, 0.05, 300.0};
    const CostSpec* const pass[] = {&a.costs().ucp_progress_iter,
                                    &a.costs().llp_empty_progress, &hiccup};
    const TimePs start = 1_us;
    const TimePs until = 6_us;
    std::uint64_t replayed = 0;
    const TimePs next = b.replay_until(pass, start, until, false, replayed);
    TimePs consumed = start;
    std::uint64_t passes = 0;
    while (consumed < until) {
      for (const CostSpec* c : pass) consumed += a.consume(*c);
      ++passes;
    }
    EXPECT_GT(passes, 50u);
    EXPECT_EQ(replayed, passes);
    EXPECT_EQ(next, consumed);
    EXPECT_EQ(a.busy_time(), b.busy_time());
    EXPECT_EQ(b.virtual_now(), TimePs::zero());  // nothing accrued
    EXPECT_EQ(a.consume(a.costs().md_setup), b.consume(b.costs().md_setup));
  }

  // Tail-free jittered passes take the block path. Gaps of 0 to 300
  // passes end exactly on a pass start, so both tie modes decide that
  // pass; the stream may enter holding a lazy or an exact variate, and
  // the 2400 ns pass falls back to the exact draw now and then.
  const CostSpec wakeup = CostSpec::jittered(2400.0, 0.2);
  const CpuCostModel model;
  const CostSpec* const idle[] = {&model.ucp_progress_iter,
                                  &model.llp_empty_progress};
  const CostSpec* const slow[] = {&wakeup};
  const std::span<const CostSpec* const> lists[] = {idle, slow};
#ifdef NDEBUG
  constexpr int kGapStep = 1;
#else
  constexpr int kGapStep = 23;
#endif
  std::uint64_t block_fallbacks = 0;
  std::uint64_t seed = 100;
  for (const double speed : {1.0, 1.007, 0.93}) {
    for (const auto pass : lists) {
      for (int entry = 0; entry < 3; ++entry) {
        for (int gap = 0; gap <= 300; gap += kGapStep) {
          for (const bool inclusive : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "speed " << speed << " costs " << pass.size()
                         << " entry " << entry << " gap " << gap
                         << " inclusive " << inclusive);
            ++seed;
            sim::Simulator sim_a(seed), sim_b(seed);
            Core a(sim_a, model);
            Core b(sim_b, model);
            a.set_speed_factor(speed);
            b.set_speed_factor(speed);
            for (Core* core : {&a, &b}) {
              if (entry == 1) core->consume(model.llp_empty_progress);
              if (entry == 2) (void)core->rng().normal();
            }
            const TimePs start = 3_us;
            TimePs consumed = start;
            std::uint64_t passes = 0;
            const auto consume_pass = [&] {
              for (const CostSpec* c : pass) consumed += a.consume(*c);
              ++passes;
            };
            for (int i = 0; i < gap; ++i) consume_pass();
            const TimePs until = consumed;
            if (inclusive) consume_pass();
            const std::uint64_t before = b.rng().exact_fallbacks();
            std::uint64_t replayed = 0;
            ASSERT_EQ(b.replay_until(pass, start, until, inclusive, replayed),
                      consumed);
            block_fallbacks += b.rng().exact_fallbacks() - before;
            ASSERT_EQ(replayed, passes);
            ASSERT_EQ(b.busy_time(), a.busy_time());
            ASSERT_EQ(b.rng().exact_fallbacks(), a.rng().exact_fallbacks());
            for (int i = 0; i < 1000; ++i) {
              const CostSpec& c = *pass[static_cast<std::size_t>(i) %
                                        pass.size()];
              ASSERT_EQ(b.consume(c), a.consume(c)) << "draw " << i;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(block_fallbacks, 0u);
}

TEST(Core, AlternatingConsumeAndReplayReadAsOneStream) {
  // One core alternates consume() of assorted costs (jittered, fixed,
  // with a hiccup tail) and normal() draws with replay_until() over
  // seeded random gaps, so its draws switch between the look-ahead's
  // single draws, its blocks and rewinds, and settling it. Every cost and
  // every replayed pass equals what a twin stream that draws each variate
  // exactly gives, and exact_fallbacks() and busy_time() equal those of a
  // core that consumes every pass.
  const CpuCostModel model;
  const CostSpec hiccup{40.0, 0.2, 0.05, 300.0};
  const CostSpec* const assorted[] = {&model.mpich_isend, &model.md_setup,
                                      &model.interrupt_wakeup, &hiccup,
                                      &model.timer_read,
                                      &model.pio_copy_64b};
  const CostSpec* const idle[] = {&model.ucp_progress_iter,
                                  &model.llp_empty_progress};
  const auto expected = [](const CostSpec& c, Rng& exact) {
    return c.body_only_jitter()
               ? TimePs::from_ns(exact.lognormal(c.lognormal()))
               : c.sample(exact);
  };
  const double pass_ns = idle[0]->mean_ns + idle[1]->mean_ns;
#ifdef NDEBUG
  constexpr int kSteps = 20000;
#else
  constexpr int kSteps = 2000;
#endif
  sim::Simulator sim_a(7), sim_b(7);
  Core a(sim_a, model);  // consumes and replays
  Core b(sim_b, model);  // consumes every pass
  Rng exact = a.rng();
  Rng script(3);
  TimePs start = TimePs::zero();
  std::uint64_t replayed = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const std::uint64_t op = script.uniform_u64(8);
    if (op < 5) {
      const CostSpec& c = *assorted[script.uniform_u64(std::size(assorted))];
      const TimePs want = expected(c, exact);
      ASSERT_EQ(a.consume(c), want);
      ASSERT_EQ(b.consume(c), want);
    } else if (op == 5) {
      const double want = exact.normal();
      ASSERT_EQ(a.rng().normal(), want);
      ASSERT_EQ(b.rng().normal(), want);
    } else {
      const TimePs until =
          start + TimePs::from_ns(script.uniform(0.0, 150.0) * pass_ns);
      const bool inclusive = script.bernoulli(0.5);
      std::uint64_t passes = 0;
      const TimePs next = a.replay_until(idle, start, until, inclusive, passes);
      std::uint64_t want_passes = 0;
      while (start < until || (inclusive && start == until)) {
        TimePs pass = TimePs::zero();
        for (const CostSpec* c : idle) {
          const TimePs d = expected(*c, exact);
          ASSERT_EQ(b.consume(*c), d);
          pass += d;
        }
        start += pass;
        ++want_passes;
      }
      ASSERT_EQ(next, start);
      ASSERT_EQ(passes, want_passes);
      replayed += passes;
    }
    ASSERT_EQ(a.rng().exact_fallbacks(), b.rng().exact_fallbacks());
    ASSERT_EQ(a.busy_time(), b.busy_time());
  }
  EXPECT_GT(replayed, static_cast<std::uint64_t>(kSteps));
  EXPECT_GT(a.rng().exact_fallbacks(), 0u);
}

TEST(Core, ReplayUntilTieRule) {
  // Fixed 100 ns passes from t=0: a wake at 300 ns replays the pass that
  // starts exactly there only when the tie is inclusive.
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  const CostSpec pass_cost = CostSpec::fixed(100.0);
  const CostSpec* const pass[] = {&pass_cost};
  std::uint64_t n = 0;
  EXPECT_EQ(core.replay_until(pass, 0_ns, 300_ns, false, n), 300_ns);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(core.replay_until(pass, 0_ns, 300_ns, true, n), 400_ns);
  EXPECT_EQ(n, 7u);
  // Nothing left to replay: the start comes back unchanged.
  EXPECT_EQ(core.replay_until(pass, 300_ns, 300_ns, false, n), 300_ns);
  EXPECT_EQ(core.replay_until(pass, 350_ns, 300_ns, true, n), 350_ns);
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(core.busy_time(), 700_ns);
}

TEST(Core, TakePendingFlushesWithoutDelay) {
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  core.consume(70_ns);
  EXPECT_EQ(core.take_pending(), 70_ns);
  EXPECT_EQ(core.virtual_now(), TimePs::zero());
  EXPECT_EQ(core.busy_time(), 70_ns);
  EXPECT_TRUE(sim.idle());
}

TEST(Core, OtherUseOfTheCoreWakesTheParkedLoop) {
  struct Loop final : sim::Parked {
    Core* core = nullptr;
    int wakes = 0;
    void wake(sim::Tie tie) override {
      ++wakes;
      EXPECT_EQ(tie, sim::Tie::kPassFirst);
      core->set_parked(nullptr);
    }
  };
  sim::Simulator sim;
  Core core(sim, deterministic_model());
  Loop loop;
  loop.core = &core;
  core.set_parked(&loop);
  (void)core.virtual_now();  // reading the clock is not a use
  EXPECT_EQ(loop.wakes, 0);
  core.consume(core.costs().md_setup);
  EXPECT_EQ(loop.wakes, 1);
  core.set_parked(&loop);
  core.consume(5_ns);
  EXPECT_EQ(loop.wakes, 2);
  core.set_parked(&loop);
  core.set_speed_factor(0.9);
  EXPECT_EQ(loop.wakes, 3);
}

}  // namespace
}  // namespace bb::cpu
