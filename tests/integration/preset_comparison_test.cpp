// Integration: the §7 presets must order exactly as the what-if analysis
// predicts when executed as real machines.

#include <gtest/gtest.h>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu.hpp"
#include "core/whatif.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

double am_latency(const scenario::SystemConfig& cfg) {
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark b(tb, {.iterations = 300,
                               .warmup = 30,
                               .speed_factor = 1.0,
                               .capture_trace = false});
  return b.run().adjusted_mean_ns;
}

TEST(PresetComparison, IntegratedNicBeatsBaseline) {
  const double base = am_latency(scenario::presets::deterministic());
  auto soc = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::integrated_nic(0.5));
  soc.cpu.strip_jitter();
  const double fast = am_latency(soc);
  // ~50% of the ~513 ns I/O disappears from the one-way path.
  EXPECT_LT(fast, base - 200.0);
}

TEST(PresetComparison, FastDeviceMemoryShavesPioCopy) {
  const double base = am_latency(scenario::presets::deterministic());
  auto fast_cfg = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::fast_device_memory(15.0));
  fast_cfg.cpu.strip_jitter();
  const double fast = am_latency(fast_cfg);
  EXPECT_NEAR(base - fast, 94.25 - 15.0, 3.0);
}

TEST(PresetComparison, GenZSwitchShaves78ns) {
  const double base = am_latency(scenario::presets::deterministic());
  auto genz = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::genz_switch(30.0));
  genz.cpu.strip_jitter();
  EXPECT_NEAR(base - am_latency(genz), 108.0 - 30.0, 2.0);
}

TEST(PresetComparison, Pam4WireIsSlowerForSmallMessages) {
  // §7.2: higher-throughput signalling *increases* small-message latency
  // (FEC adds up to 300 ns).
  const double base = am_latency(scenario::presets::deterministic());
  auto pam4 = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::pam4_fec_wire(300.0));
  pam4.cpu.strip_jitter();
  EXPECT_NEAR(am_latency(pam4) - base, 300.0, 5.0);
}

TEST(PresetComparison, TofuDLikeRemovesRoughly400ns) {
  // §7.1: Tofu-D's integration improved RDMA-write latency by ~400 ns.
  const double base = am_latency(scenario::presets::deterministic());
  auto tofu = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::tofu_d_like());
  tofu.cpu.strip_jitter();
  EXPECT_NEAR(base - am_latency(tofu), 400.0, 50.0);
}

TEST(PresetComparison, OrderingMatchesWhatIfRanking) {
  // The engine ranks: integrated-NIC > fast-PIO > Gen-Z switch for
  // latency; the executed machines must agree.
  const double base = am_latency(scenario::presets::deterministic());
  auto mk = [](const scenario::overlays::Overlay& o) {
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4().with(o);
    cfg.cpu.strip_jitter();
    return cfg;
  };
  const double soc = am_latency(mk(scenario::overlays::integrated_nic(0.5)));
  const double pio = am_latency(mk(scenario::overlays::fast_device_memory()));
  const double genz = am_latency(mk(scenario::overlays::genz_switch()));
  EXPECT_LT(soc, pio);
  EXPECT_LT(pio, genz);
  EXPECT_LT(genz, base);
}

}  // namespace
}  // namespace bb
