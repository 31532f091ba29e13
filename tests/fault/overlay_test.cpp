// The composable config-overlay API: overlays must compose left to right
// with self-describing names, and a raw FaultConfig / callable must
// compose.

#include <gtest/gtest.h>

#include "scenario/config.hpp"

namespace bb::scenario {
namespace {

TEST(Overlays, ComposeLeftToRightAndRecordNames) {
  const SystemConfig c = presets::thunderx2_cx4().with(
      overlays::genz_switch(30.0), overlays::faults(1e-3));
  EXPECT_EQ(c.name, "genz-switch+faults");
  EXPECT_NEAR(c.net.switch_latency_ns, 30.0, 1e-12);
  EXPECT_NEAR(c.fault.tlp_corrupt_prob, 1e-3, 1e-15);
  EXPECT_TRUE(c.fault.enabled());
}

TEST(Overlays, LaterOverlayWins) {
  const SystemConfig c = presets::thunderx2_cx4().with(
      overlays::genz_switch(30.0), overlays::genz_switch(50.0));
  EXPECT_NEAR(c.net.switch_latency_ns, 50.0, 1e-12);
}

TEST(Overlays, RawFaultConfigComposesDirectly) {
  fault::FaultConfig f;
  f.tlp_drop_prob = 0.01;
  f.max_replays = 9;
  const SystemConfig c = presets::thunderx2_cx4().with(f);
  EXPECT_TRUE(c.fault.enabled());
  EXPECT_EQ(c.fault.max_replays, 9);
  EXPECT_EQ(c.name, "faults");
}

TEST(Overlays, ArbitraryCallableComposes) {
  const SystemConfig c = presets::thunderx2_cx4().with(
      [](SystemConfig& cfg) { cfg.endpoint.txq_depth = 7; });
  EXPECT_EQ(c.endpoint.txq_depth, 7u);
  // Anonymous overlays do not relabel.
  EXPECT_EQ(c.name, "thunderx2-cx4");
}

TEST(Overlays, WithDoesNotMutateTheSource) {
  const SystemConfig base = presets::thunderx2_cx4();
  (void)base.with(overlays::faults(0.5));
  EXPECT_FALSE(base.fault.enabled());
  EXPECT_EQ(base.name, "thunderx2-cx4");
}

TEST(Overlays, FaultyTestbedPresetWiresFaults) {
  fault::FaultConfig f;
  f.updatefc_drop_prob = 0.25;
  const SystemConfig c = presets::thunderx2_cx4().with(overlays::faults(f));
  EXPECT_TRUE(c.fault.enabled());
  EXPECT_NEAR(c.fault.updatefc_drop_prob, 0.25, 1e-15);
}

TEST(Overlays, ZeroRateFaultsOverlayStaysDisabled) {
  // The fault-rate->0 limit: overlaying zero-rate faults must leave the
  // machine on the error-free fast path (no injector consulted at all).
  const SystemConfig c =
      presets::thunderx2_cx4().with(overlays::faults(0.0));
  EXPECT_FALSE(c.fault.enabled());
}

}  // namespace
}  // namespace bb::scenario
