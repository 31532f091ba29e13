#include "cpu/cost.hpp"
#include "cpu/cost_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cpu/core.hpp"

namespace bb::cpu {
namespace {

TEST(CostSpec, FixedIsDeterministic) {
  Rng rng(1);
  const auto spec = CostSpec::fixed(94.25);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(spec.sample(rng).to_ns(), 94.25, 1e-9);
  }
}

TEST(CostSpec, JitteredMatchesMoments) {
  Rng rng(2);
  const auto spec = CostSpec::jittered(100.0, 0.15);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += spec.sample(rng).to_ns();
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(CostSpec, KeptParametersFollowEditsAndMatchPerDrawDerivation) {
  // The spec derives its lognormal parameters once per (mean_ns, cv);
  // draws stay bit-identical to deriving them on every draw, also after
  // the fields are edited between draws.
  Rng a(7), b(7);
  CostSpec spec = CostSpec::jittered(282.0, 0.2);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(spec.sample(a).ps(),
                TimePs::from_ns(b.lognormal_by_moments(
                                    spec.mean_ns, spec.cv * spec.mean_ns))
                    .ps())
          << "round " << round << " draw " << i;
    }
    if (round == 0) spec.mean_ns *= 1.5;
    if (round == 1) spec.cv = 0.05;
  }
}

TEST(CostSpec, FastDrawIsBitwiseExact) {
  // A tail-free jittered spec samples through Rng::lognormal_ps. Through
  // a Core at several speed factors, with normal() and lognormal() draws
  // interleaved on the same stream, every sample must equal the
  // reference expression's, and so must every interleaved value.
  const CpuCostModel m;
  const std::vector<CostSpec> specs = {
      m.interrupt_wakeup,  m.llp_empty_progress,   m.md_setup,
      m.barrier_store_md,  m.barrier_store_dbc,    m.pio_copy_64b,
      m.llp_post_misc,     m.llp_prog,             m.busy_post,
      m.doorbell_write_8b, m.timer_read,           m.memcpy_normal_64b,
      m.mpich_isend,       m.ucp_isend,            m.mpich_rx_callback,
      m.ucp_rx_callback,   m.mpich_after_progress, m.mpich_wait_fixed,
      m.ucp_progress_iter, m.hlp_tx_prog,          CostSpec::jittered(0.5, 3.0),
      CostSpec::jittered(1e5, 0.5)};
  constexpr std::size_t kWakeup = 0;         // 2400 ns
  constexpr std::size_t kEmptyProgress = 1;  // 18 ns
  for (const CostSpec& spec : specs) {
    ASSERT_GT(spec.cv, 0.0);
    ASSERT_EQ(spec.tail_prob, 0.0);
  }
#ifdef NDEBUG
  constexpr int kRounds = 160000;  // 10.56M draws over three factors
#else
  constexpr int kRounds = 5000;
#endif
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const Rng::LognormalParams extra = Rng::lognormal_params(282.0, 58.0);
  std::vector<std::uint64_t> fallbacks(specs.size(), 0);
  for (const double factor : {1.0, 1.007, 0.93}) {
    sim::Simulator sim;
    Core core(sim, m);
    core.set_speed_factor(factor);
    Rng ref = core.rng();
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const CostSpec& spec = specs[i];
        const std::uint64_t before = core.rng().exact_fallbacks();
        TimePs want = TimePs::from_ns(ref.lognormal(spec.lognormal()));
        if (factor != 1.0) want = want.scaled(factor);
        ASSERT_EQ(core.consume(spec), want)
            << "mean " << spec.mean_ns << " cv " << spec.cv << " factor "
            << factor << " round " << round;
        fallbacks[i] += core.rng().exact_fallbacks() - before;
      }
      if (round % 3 == 0) {
        ASSERT_EQ(bits(core.rng().normal()), bits(ref.normal()));
      }
      if (round % 5 == 0) {
        ASSERT_EQ(bits(core.rng().lognormal(extra)),
                  bits(ref.lognormal(extra)));
      }
    }
  }
  // At 2400 ns the bracket straddles a picosecond boundary about once in
  // 1000 draws, so the exact branch ran; at 18 ns that is rarer than once
  // in 10^4 draws.
  constexpr std::uint64_t kDrawsPerSpec = 3 * kRounds;
  EXPECT_GT(fallbacks[kWakeup], 0u);
  EXPECT_LT(fallbacks[kEmptyProgress] * 10000, kDrawsPerSpec);
}

TEST(CostSpec, SamplesAreAlwaysPositive) {
  Rng rng(3);
  const auto spec = CostSpec::jittered(10.0, 0.5);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(spec.sample(rng).to_ns(), 0.0);
  }
}

TEST(CostSpec, TailProducesRareLargeSamples) {
  Rng rng(4);
  CostSpec spec{100.0, 0.0, 0.01, 5000.0};
  int big = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (spec.sample(rng).to_ns() > 1000.0) ++big;
  }
  // ~1% hiccup probability, most hiccups exceed 900 ns extra.
  EXPECT_GT(big, 500);
  EXPECT_LT(big, 1500);
}

TEST(CostSpec, ScaledAdjustsMeanOnly) {
  const auto spec = CostSpec::jittered(94.25, 0.18);
  const auto fast = spec.scaled(0.16);
  EXPECT_NEAR(fast.mean_ns, 15.08, 1e-9);
  EXPECT_DOUBLE_EQ(fast.cv, 0.18);
}

TEST(CpuCostModel, Table1LlpPostTotal) {
  CpuCostModel m;
  // 27.78 + 17.33 + 21.07 + 94.25 + 14.99 = 175.42 (Table 1).
  EXPECT_NEAR(m.llp_post_mean_ns(), 175.42, 1e-9);
}

TEST(CpuCostModel, Table1DerivedHlpQuantities) {
  CpuCostModel m;
  // MPI_Isend HLP total: 24.37 + 2.19 = 26.56.
  EXPECT_NEAR(m.mpich_isend.mean_ns + m.ucp_isend.mean_ns, 26.56, 1e-9);
  // HLP_rx_prog: 47.99 + 139.78 + 36.89 = 224.66 (§6).
  EXPECT_NEAR(m.mpich_rx_callback.mean_ns + m.ucp_rx_callback.mean_ns +
                  m.mpich_after_progress.mean_ns,
              224.66, 1e-9);
  // Successful MPI_Wait in MPICH: 208.41 + 47.99 + 36.89 = 293.29.
  EXPECT_NEAR(m.mpich_wait_fixed.mean_ns + m.mpich_rx_callback.mean_ns +
                  m.mpich_after_progress.mean_ns,
              293.29, 1e-9);
  // Successful MPI_Wait in UCP: 10.73 + 139.78 = 150.51.
  EXPECT_NEAR(m.ucp_progress_iter.mean_ns + m.ucp_rx_callback.mean_ns, 150.51,
              1e-9);
}

TEST(CpuCostModel, StripJitterZeroesEverything) {
  CpuCostModel m;
  m.strip_jitter();
  Rng rng(5);
  EXPECT_NEAR(m.pio_copy_64b.sample(rng).to_ns(), 94.25, 1e-9);
  EXPECT_NEAR(m.timer_read.sample(rng).to_ns(), 49.69, 1e-9);
  EXPECT_NEAR(m.loop_hiccup.sample(rng).to_ns(), 0.0, 1e-9);
}

}  // namespace
}  // namespace bb::cpu
