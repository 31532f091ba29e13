// Property: the what-if engine's predictions equal re-evaluating the
// analytical model on the correspondingly modified configuration --
// i.e., predicted and "executed" optimizations agree exactly at the
// model level, for every component and every reduction.

#include <gtest/gtest.h>

#include "core/whatif.hpp"
#include "scenario/config.hpp"

namespace bb::core {
namespace {

class WhatIfSweep : public ::testing::TestWithParam<double> {};

TEST_P(WhatIfSweep, PioPredictionMatchesModifiedConfig) {
  const double reduction = GetParam();
  const auto base_cfg = scenario::presets::thunderx2_cx4();
  const auto base = ComponentTable::from_config(base_cfg);
  const WhatIf w(base);

  auto fast = base_cfg;
  fast.cpu.pio_copy_64b.mean_ns *= (1.0 - reduction);
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat =
      LatencyModel(ComponentTable::from_config(fast)).e2e_latency_ns();

  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              WhatIf::speedup(base.pio_copy, reduction, base_lat), 1e-12);
}

TEST_P(WhatIfSweep, SwitchPredictionMatchesModifiedConfig) {
  const double reduction = GetParam();
  const auto base_cfg = scenario::presets::thunderx2_cx4();
  const auto base = ComponentTable::from_config(base_cfg);

  auto fast = base_cfg;
  fast.net.switch_latency_ns *= (1.0 - reduction);
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat =
      LatencyModel(ComponentTable::from_config(fast)).e2e_latency_ns();

  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              WhatIf::speedup(base.switch_lat, reduction, base_lat), 1e-12);
}

TEST_P(WhatIfSweep, IntegratedNicPresetMatchesPrediction) {
  const double reduction = GetParam();
  const auto base = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(base);

  const auto soc = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4().with(
          scenario::overlays::integrated_nic(reduction)));
  const double base_lat = LatencyModel(base).e2e_latency_ns();
  const double new_lat = LatencyModel(soc).e2e_latency_ns();

  // The preset scales PCIe and RC-to-MEM; prediction uses the aggregate
  // I/O component. Small deviation allowed: the preset scales the link
  // base (which also carries the Ack-path asymmetry of measured PCIe).
  EXPECT_NEAR((base_lat - new_lat) / base_lat,
              w.integrated_nic_latency_speedup(reduction), 0.005);
}

INSTANTIATE_TEST_SUITE_P(ReductionGrid, WhatIfSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(WhatIfPanels, EveryCurveCellIsConsistent) {
  const auto t = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(t);
  for (const auto& panel : {w.injection_cpu(), w.latency_cpu(),
                            w.latency_io(), w.latency_network()}) {
    for (const auto& curve : panel.curves) {
      ASSERT_EQ(curve.reductions.size(), curve.speedups.size());
      for (std::size_t i = 0; i < curve.speedups.size(); ++i) {
        EXPECT_NEAR(curve.speedups[i],
                    curve.reductions[i] * curve.component_ns /
                        panel.base_total_ns,
                    1e-12);
        EXPECT_GE(curve.speedups[i], 0.0);
        EXPECT_LT(curve.speedups[i], 1.0);
      }
    }
  }
}

TEST(WhatIfPanels, InjectionComponentsNestCorrectly) {
  // HLP = HLP_post + HLP_tx_prog and LLP = LLP_post + LLP_tx_prog: the
  // aggregate curves must equal the sum of their parts at every point.
  const auto t = ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const WhatIf w(t);
  const auto p = w.injection_cpu();
  auto curve = [&](const std::string& name) -> const WhatIfCurve& {
    for (const auto& c : p.curves) {
      if (c.component == name) return c;
    }
    throw std::runtime_error("missing curve " + name);
  };
  for (std::size_t i = 0; i < WhatIf::standard_grid().size(); ++i) {
    EXPECT_NEAR(curve("HLP").speedups[i],
                curve("HLP_post").speedups[i] +
                    curve("HLP_tx_prog").speedups[i],
                1e-12);
    EXPECT_NEAR(curve("LLP").speedups[i],
                curve("LLP_post").speedups[i] +
                    curve("LLP_tx_prog").speedups[i],
                1e-12);
  }
}

}  // namespace
}  // namespace bb::core
