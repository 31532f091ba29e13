#include "cpu/cost.hpp"
#include "cpu/cost_model.hpp"

#include <gtest/gtest.h>

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
