#include "llp/worker.hpp"

#include <gtest/gtest.h>

#include "llp/endpoint.hpp"
#include "scenario/testbed.hpp"

namespace bb::llp {
namespace {

using scenario::Testbed;
using namespace bb::literals;

TEST(Worker, EmptyProgressCostsEmptyPass) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 0u);
    EXPECT_NEAR(n.core.virtual_now().to_ns(),
                n.core.costs().llp_empty_progress.mean_ns, 1e-6);
  }(tb.node(0)));
  tb.sim().run();
}

TEST(Worker, EachDequeuedCqeCostsLlpProg) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  // Inject two CQEs directly into the TX CQ at time zero.
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{1, 1, 0, 0, 0_ns});
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{2, 1, 0, 0, 0_ns});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    // Make the endpoint accounting consistent with the injected CQEs.
    (void)co_await e.put_short(8);
    (void)co_await e.put_short(8);
    const double t0 = n.core.virtual_now().to_ns();
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 2u);
    EXPECT_NEAR(n.core.virtual_now().to_ns() - t0, 2 * 61.63, 1e-6);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, BatchLimitBoundsDequeues) {
  auto cfg = scenario::presets::deterministic();
  cfg.llp_worker.batch_limit = 16;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  for (int i = 0; i < 5; ++i) {
    tb.node(0).host.tx_cq(ep.qp()).push(
        nic::Cqe{static_cast<std::uint64_t>(i + 1), 1, 0, 0, 0_ns});
  }
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 1u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, RxHandlerInvokedPerReceiveCompletion) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  std::vector<std::uint64_t> seen;
  tb.node(0).worker.set_rx_handler(
      [&](const nic::Cqe& c) { seen.push_back(c.msg_id); });
  tb.node(0).host.rx_cq().push(nic::Cqe{21, 1, 0, 0, 0_ns});
  tb.node(0).host.rx_cq().push(nic::Cqe{22, 1, 0, 0, 0_ns});
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    (void)co_await n.worker.progress();
  }(tb.node(0)));
  tb.sim().run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{21, 22}));
  EXPECT_EQ(tb.node(0).worker.rx_completions(), 2u);
}

TEST(Worker, InvisibleCqesNotDequeued) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{1, 1, 0, 0, 10_us});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(), 0u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, MsgIdsAreUniqueAndMonotonic) {
  Testbed tb(scenario::presets::deterministic());
  auto& w = tb.node(0).worker;
  const auto a = w.alloc_msg_id();
  const auto b = w.alloc_msg_id();
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace bb::llp
