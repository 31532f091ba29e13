#include "core/component_table.hpp"

#include <gtest/gtest.h>

namespace bb::core {
namespace {

TEST(ComponentTable, PaperTable1Totals) {
  const ComponentTable t = ComponentTable::paper();
  EXPECT_NEAR(t.llp_post(), 175.42, 1e-9);      // Table 1
  EXPECT_NEAR(t.misc_llp_inj(), 58.68, 1e-9);   // busy post + meas. update
  EXPECT_NEAR(t.network(), 382.81, 1e-9);       // wire + switch
  EXPECT_NEAR(t.hlp_post(), 26.56, 1e-9);       // MPICH + UCP Isend
  EXPECT_NEAR(t.hlp_rx_prog(), 224.66, 1e-9);   // §6
  EXPECT_NEAR(t.llp_tx_prog(), 61.63 / 64, 1e-9);
}

TEST(ComponentTable, PaperWaitTotals) {
  const ComponentTable t = ComponentTable::paper();
  // Fig. 11's successful-MPI_Wait total: 293.29 + 150.51 = 443.8.
  EXPECT_NEAR(t.mpich_wait_total + t.ucp_wait_total, 443.8, 1e-9);
}

TEST(ComponentTable, FromConfigMatchesPaperCalibration) {
  const auto cfg = scenario::presets::thunderx2_cx4();
  const ComponentTable t = ComponentTable::from_config(cfg);
  const ComponentTable p = ComponentTable::paper();
  EXPECT_NEAR(t.llp_post(), p.llp_post(), 1e-6);
  EXPECT_NEAR(t.llp_prog, p.llp_prog, 1e-6);
  EXPECT_NEAR(t.pcie, p.pcie, 0.2);
  EXPECT_NEAR(t.wire, p.wire, 1e-6);
  EXPECT_NEAR(t.switch_lat, p.switch_lat, 1e-6);
  EXPECT_NEAR(t.rc_to_mem_8b, p.rc_to_mem_8b, 1e-6);
  EXPECT_NEAR(t.hlp_post(), p.hlp_post(), 1e-6);
  EXPECT_NEAR(t.hlp_rx_prog(), p.hlp_rx_prog(), 1e-6);
  EXPECT_NEAR(t.mpich_wait_total, p.mpich_wait_total, 1e-6);
  EXPECT_NEAR(t.ucp_wait_total, p.ucp_wait_total, 1e-6);
}

TEST(ComponentTable, FromConfigTracksOverrides) {
  auto cfg = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::genz_switch(30.0));
  const ComponentTable t = ComponentTable::from_config(cfg);
  EXPECT_NEAR(t.switch_lat, 30.0, 1e-9);
  auto cfg2 = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::fast_device_memory(15.0));
  EXPECT_NEAR(ComponentTable::from_config(cfg2).pio_copy, 15.0, 1e-9);
}

TEST(ComponentTable, RenderShowsTable1Rows) {
  const std::string out = ComponentTable::paper().render();
  EXPECT_NE(out.find("PIO copy (64 bytes)"), std::string::npos);
  EXPECT_NE(out.find("175.42"), std::string::npos);
  EXPECT_NE(out.find("RC-to-MEM(8B)"), std::string::npos);
  EXPECT_NE(out.find("240.96"), std::string::npos);
}

TEST(ComponentTable, RenderSideBySide) {
  const ComponentTable p = ComponentTable::paper();
  const ComponentTable c =
      ComponentTable::from_config(scenario::presets::thunderx2_cx4());
  const std::string out = p.render(&c, "paper", "config");
  EXPECT_NE(out.find("paper (ns)"), std::string::npos);
  EXPECT_NE(out.find("config (ns)"), std::string::npos);
}

}  // namespace
}  // namespace bb::core
