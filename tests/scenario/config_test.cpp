#include "scenario/config.hpp"

#include <gtest/gtest.h>

namespace bb::scenario {
namespace {

TEST(Presets, DefaultIsPaperTestbed) {
  const SystemConfig c = presets::thunderx2_cx4();
  EXPECT_EQ(c.name, "thunderx2-cx4");
  EXPECT_NEAR(c.cpu.llp_post_mean_ns(), 175.42, 1e-9);
  EXPECT_NEAR(c.net.wire_latency_ns, 274.81, 1e-9);
  EXPECT_EQ(c.net.num_switches, 1);
  EXPECT_TRUE(c.endpoint.use_pio);
  EXPECT_TRUE(c.endpoint.inline_payload);
}

TEST(Presets, IntegratedNicScalesIoOnly) {
  const SystemConfig base = presets::thunderx2_cx4();
  const SystemConfig soc = base.with(overlays::integrated_nic(0.5));
  EXPECT_NEAR(soc.link.base_latency_ns, base.link.base_latency_ns * 0.5, 1e-9);
  EXPECT_NEAR(soc.rc.rc_to_mem_base_ns, base.rc.rc_to_mem_base_ns * 0.5, 1e-9);
  // CPU and network untouched.
  EXPECT_EQ(soc.cpu.pio_copy_64b.mean_ns, base.cpu.pio_copy_64b.mean_ns);
  EXPECT_EQ(soc.net.wire_latency_ns, base.net.wire_latency_ns);
}

TEST(Presets, FastDeviceMemoryHitsPioOnly) {
  const SystemConfig fast =
      presets::thunderx2_cx4().with(overlays::fast_device_memory(15.0));
  EXPECT_NEAR(fast.cpu.pio_copy_64b.mean_ns, 15.0, 1e-9);
  EXPECT_NEAR(fast.cpu.md_setup.mean_ns, 27.78, 1e-9);
}

TEST(Presets, GenZSwitch) {
  const SystemConfig base = presets::thunderx2_cx4();
  EXPECT_NEAR(base.with(overlays::genz_switch(30.0)).net.switch_latency_ns,
              30.0, 1e-9);
  EXPECT_NEAR(base.with(overlays::genz_switch()).net.wire_latency_ns, 274.81,
              1e-9);
}

TEST(Presets, Pam4WireTradesLatencyForBandwidth) {
  const SystemConfig base = presets::thunderx2_cx4();
  const SystemConfig pam4 = base.with(overlays::pam4_fec_wire(300.0));
  EXPECT_NEAR(pam4.net.wire_latency_ns, base.net.wire_latency_ns + 300.0,
              1e-9);
  EXPECT_LT(pam4.net.serialize_ns_per_byte, base.net.serialize_ns_per_byte);
}

TEST(Presets, TofuDLikeRemovesMostIo) {
  const SystemConfig base = presets::thunderx2_cx4();
  const SystemConfig tofu = base.with(overlays::tofu_d_like());
  // ~80% I/O reduction: 2xPCIe + RC-to-MEM shrink by ~413 ns of 516.
  const double base_io = 2 * base.link.tlp_latency(64).to_ns() +
                         base.rc.rc_to_mem(8).to_ns();
  const double tofu_io = 2 * tofu.link.tlp_latency(64).to_ns() +
                         tofu.rc.rc_to_mem(8).to_ns();
  EXPECT_NEAR(base_io - tofu_io, 0.8 * base_io, base_io * 0.02);
}

TEST(Presets, DoorbellDmaPath) {
  const SystemConfig db =
      presets::thunderx2_cx4().with(overlays::doorbell_dma());
  EXPECT_FALSE(db.endpoint.use_pio);
  EXPECT_FALSE(db.endpoint.inline_payload);
}

TEST(Presets, UnsignaledCompletions) {
  const SystemConfig base = presets::thunderx2_cx4();
  EXPECT_EQ(base.with(overlays::unsignaled_completions()).endpoint.signal.period,
            64u);
  EXPECT_EQ(
      base.with(overlays::unsignaled_completions(16)).endpoint.signal.period,
      16u);
}

TEST(Presets, TsoCpuDropsWeakMemoryBarriers) {
  const SystemConfig tso = presets::thunderx2_cx4().with(overlays::tso_cpu());
  EXPECT_EQ(tso.cpu.barrier_store_md.mean_ns, 0.0);
  EXPECT_LT(tso.cpu.barrier_store_dbc.mean_ns, 21.07);
  // LLP_post shrinks by the memory-model tax (~33 ns of 175).
  EXPECT_NEAR(tso.cpu.llp_post_mean_ns(), 175.42 - 17.33 - 21.07 * 0.75,
              1e-6);
}

TEST(Presets, DeterministicStripsAllJitter) {
  const SystemConfig det = presets::deterministic();
  EXPECT_EQ(det.cpu.pio_copy_64b.cv, 0.0);
  EXPECT_EQ(det.cpu.timer_read.cv, 0.0);
  EXPECT_EQ(det.cpu.loop_hiccup.tail_prob, 0.0);
  EXPECT_EQ(det.cpu.loop_exp_noise.tail_prob, 0.0);
}

}  // namespace
}  // namespace bb::scenario
