#include "scenario/testbed.hpp"

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"

namespace bb::scenario {
namespace {

TEST(Testbed, WiresTwoNodesAndAnalyzer) {
  Testbed tb(presets::deterministic());
  EXPECT_EQ(tb.node(0).nic.node_id(), 0);
  EXPECT_EQ(tb.node(1).nic.node_id(), 1);
  EXPECT_TRUE(tb.analyzer().enabled());
  EXPECT_EQ(tb.analyzer().trace().size(), 0u);
}

TEST(Testbed, SeedPropagatesToSimulator) {
  auto cfg = presets::deterministic();
  cfg.seed = 99;
  Testbed a(cfg), b(cfg);
  EXPECT_EQ(a.sim().rng().next_u64(), b.sim().rng().next_u64());
}

TEST(Testbed, EndpointUsesConfigTemplate) {
  auto cfg = presets::deterministic();
  cfg.endpoint.txq_depth = 7;
  Testbed tb(cfg);
  EXPECT_EQ(tb.add_endpoint(0).config().txq_depth, 7u);
  llp::EndpointConfig override_cfg = cfg.endpoint;
  override_cfg.txq_depth = 3;
  EXPECT_EQ(tb.add_endpoint(0, override_cfg).config().txq_depth, 3u);
}

TEST(Testbed, AddCoreCreatesIndependentWorkers) {
  Testbed tb(presets::deterministic());
  auto& wc1 = tb.add_core(0);
  auto& wc2 = tb.add_core(0);
  EXPECT_NE(&wc1.core, &wc2.core);
  EXPECT_NE(&wc1.worker, &wc2.worker);
  // Endpoints created on extra cores get distinct QPs automatically.
  auto& e1 = tb.add_endpoint(wc1, 0);
  auto& e2 = tb.add_endpoint(wc2, 0);
  EXPECT_NE(e1.qp(), e2.qp());
}

TEST(Testbed, EndpointsOnOneNodeGetDistinctQps) {
  // Regression: two add_endpoint(0) calls used to share QP 0, hence one
  // TX CQ and one payload region, and the first CQE retired the other
  // endpoint's ops ("CQE retired more ops than outstanding").
  Testbed tb(presets::deterministic());
  auto& a = tb.add_endpoint(0);
  auto& b = tb.add_endpoint(0);
  EXPECT_NE(a.qp(), b.qp());
  tb.sim().spawn([](Testbed& t, llp::Endpoint& x,
                    llp::Endpoint& y) -> sim::Task<void> {
    llp::Worker& w = t.node(0).worker;
    for (int i = 0; i < 100; ++i) {
      while (co_await x.put_short(8) != llp::Status::kOk) co_await w.progress();
      while (co_await y.put_short(8) != llp::Status::kOk) co_await w.progress();
    }
    while (co_await x.flush() != llp::Status::kOk) co_await w.progress();
    while (co_await y.flush() != llp::Status::kOk) co_await w.progress();
    while (x.outstanding() > 0 || y.outstanding() > 0) co_await w.progress();
  }(tb, a, b));
  tb.sim().run();
  EXPECT_EQ(a.outstanding(), 0u);
  EXPECT_EQ(b.outstanding(), 0u);
  EXPECT_EQ(a.tx_errors() + b.tx_errors(), 0u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 2u * 100u * 8u);
}

TEST(Testbed, ProfilerWiredIntoWorker) {
  Testbed tb(presets::deterministic());
  EXPECT_EQ(&tb.node(0).worker.profiler(), &tb.node(0).profiler);
}

TEST(MpiStack, BundlesFullStack) {
  Testbed tb(presets::deterministic());
  MpiStack s(tb, 0);
  EXPECT_EQ(s.ucp().sole_peer(), 1);
  EXPECT_EQ(&s.mpi().ucp(), &s.ucp());
  // UCX default signalling: one CQE per 64 ops.
  EXPECT_EQ(s.endpoint().config().signal.period, 64u);
  MpiStack s2(tb, 1, 8);
  EXPECT_EQ(s2.endpoint().config().signal.period, 8u);
}

TEST(Testbed, RdmaWriteSmokeAcrossAllPresets) {
  // Every preset must produce a working machine end to end.
  const SystemConfig base = presets::thunderx2_cx4();
  for (auto cfg :
       {base, base.with(overlays::integrated_nic(0.5)),
        base.with(overlays::fast_device_memory()),
        base.with(overlays::genz_switch()), base.with(overlays::pam4_fec_wire()),
        base.with(overlays::tofu_d_like()), base.with(overlays::doorbell_dma()),
        base.with(overlays::unsignaled_completions()),
        presets::deterministic()}) {
    Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < 8; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await t.node(0).worker.progress();
        }
      }
      // Moderated presets leave an unsignalled tail; flush retires it.
      while (co_await e.flush() == llp::Status::kNoResource) {
        co_await t.node(0).worker.progress();
      }
      while (e.outstanding() > 0) co_await t.node(0).worker.progress();
    }(tb, ep));
    tb.sim().run();
    EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 64u)
        << "preset " << cfg.name;
  }
}

}  // namespace
}  // namespace bb::scenario
