#include "scenario/cluster.hpp"

#include <gtest/gtest.h>

#include <string>

#include "coll/communicator.hpp"

namespace bb::scenario {
namespace {

TEST(Cluster, ConstructsNNodes) {
  Cluster cl(presets::deterministic(), 4);
  EXPECT_EQ(cl.node_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cl.node(i).nic.node_id(), i);
    EXPECT_EQ(cl.node(i).core.name(), "core" + std::to_string(i));
  }
}

TEST(Cluster, ExtraCoresAreNumberedPerNode) {
  Cluster cl(presets::deterministic(), 3);
  EXPECT_EQ(cl.add_core(0).core.name(), "core0-1");
  EXPECT_EQ(cl.add_core(2).core.name(), "core2-1");
  EXPECT_EQ(cl.add_core(0).core.name(), "core0-2");
}

TEST(Cluster, ExtraCoreEndpointTargetsExplicitPeer) {
  Cluster cl(presets::deterministic(), 3);
  auto& wc = cl.add_core(1);
  auto& ep = cl.add_endpoint(wc, 1, 2);
  EXPECT_EQ(ep.peer_node(), 2);
  cl.sim().spawn([](Cluster::WorkerCore& w,
                    llp::Endpoint& e) -> sim::Task<void> {
    while (co_await e.put_short(8) != llp::Status::kOk) {
      co_await w.worker.progress();
    }
    while (e.outstanding() > 0) co_await w.worker.progress();
  }(wc, ep));
  cl.sim().run();
  EXPECT_EQ(cl.node(2).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(cl.node(0).host.payload_bytes_delivered(), 0u);
}

TEST(Cluster, RoutesToExplicitPeer) {
  Cluster cl(presets::deterministic(), 3);
  auto& ep02 = cl.add_endpoint(0, 2);
  cl.sim().spawn([](Cluster& c, llp::Endpoint& e) -> sim::Task<void> {
    while (co_await e.put_short(8) != llp::Status::kOk) {
      co_await c.node(0).worker.progress();
    }
    while (e.outstanding() > 0) co_await c.node(0).worker.progress();
  }(cl, ep02));
  cl.sim().run();
  EXPECT_EQ(cl.node(2).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(cl.node(1).host.payload_bytes_delivered(), 0u);
}

TEST(Cluster, EndpointsGetUniqueQps) {
  Cluster cl(presets::deterministic(), 3);
  auto& a = cl.add_endpoint(0, 1);
  auto& b = cl.add_endpoint(0, 2);
  EXPECT_NE(a.qp(), b.qp());
  EXPECT_EQ(a.peer_node(), 1);
  EXPECT_EQ(b.peer_node(), 2);
}

TEST(Cluster, RingExchangeCompletes) {
  // Each rank sends one message to its right neighbour and receives one
  // from its left -- the minimal multi-rank pattern.
  constexpr int kNodes = 4;
  Cluster cl(presets::deterministic(), kNodes);
  std::vector<llp::Endpoint*> eps;
  for (int r = 0; r < kNodes; ++r) {
    cl.node(r).nic.post_receives(4);
    eps.push_back(&cl.add_endpoint(r, (r + 1) % kNodes));
  }
  for (int r = 0; r < kNodes; ++r) {
    cl.sim().spawn([](Cluster& c, int rank, llp::Endpoint& e) -> sim::Task<void> {
      while (co_await e.am_short(8) != llp::Status::kOk) {
        co_await c.node(rank).worker.progress();
      }
      // Wait for our own send completion and the neighbour's message.
      while (e.outstanding() > 0 ||
             c.node(rank).worker.rx_completions() == 0) {
        co_await c.node(rank).worker.progress();
      }
    }(cl, r, *eps[static_cast<std::size_t>(r)]));
  }
  cl.sim().run();
  for (int r = 0; r < kNodes; ++r) {
    EXPECT_EQ(cl.node(r).worker.rx_completions(), 1u) << "rank " << r;
    EXPECT_EQ(cl.node(r).host.payload_bytes_delivered(), 8u) << "rank " << r;
  }
}

TEST(Cluster, PairwiseLatencyMatchesTestbed) {
  // A 2-node cluster must behave exactly like the Testbed.
  Cluster cl(presets::deterministic(), 2);
  auto& ep = cl.add_endpoint(0, 1);
  cl.node(1).nic.post_receives(1);
  double done = 0;
  cl.sim().spawn([](Cluster& c, llp::Endpoint& e, double& out) -> sim::Task<void> {
    (void)co_await e.am_short(8);
    while (c.node(1).host.rx_cq().depth() == 0) {
      co_await c.sim().delay(TimePs::from_ns(10));
    }
    out = c.sim().now().to_ns();
  }(cl, ep, done));
  cl.sim().run();
  const auto& C = cl.config();
  const double expected = C.cpu.llp_post_mean_ns() +
                          C.link.tlp_latency(64).to_ns() + C.nic.tx_proc_ns +
                          C.net.network_latency().to_ns() + C.nic.rx_proc_ns +
                          C.link.tlp_latency(8).to_ns() +
                          C.rc.rc_to_mem(8).to_ns();
  EXPECT_NEAR(done, expected, 12.0);  // polling granularity
}

TEST(Cluster, MpiRingExchange) {
  // One MPI stack per rank on a 3-node ring: each rank isends to its
  // right neighbour and blocks on an irecv from its left.
  constexpr int kNodes = 3;
  Cluster cl(presets::deterministic(), kNodes);
  coll::World world(cl);
  int done = 0;
  for (int r = 0; r < kNodes; ++r) {
    cl.sim().spawn([](coll::Communicator& c, int& d) -> sim::Task<void> {
      const int n = c.size();
      hlp::Request* rr = c.irecv((c.rank() + n - 1) % n, 8);
      (void)co_await c.isend((c.rank() + 1) % n, 8);
      EXPECT_EQ(co_await c.wait(rr), common::Status::kOk);
      ++d;
    }(world.comm(r), done));
  }
  cl.sim().run();
  EXPECT_EQ(done, kNodes);
  for (int r = 0; r < kNodes; ++r) {
    EXPECT_EQ(cl.node(r).host.payload_bytes_delivered(), 8u) << "rank " << r;
  }
}

TEST(Cluster, AnalyzerTapsNodeZeroOnly) {
  Cluster cl(presets::deterministic(), 3);
  auto& ep12 = cl.add_endpoint(1, 2);
  cl.sim().spawn([](Cluster& c, llp::Endpoint& e) -> sim::Task<void> {
    while (co_await e.put_short(8) != llp::Status::kOk) {
      co_await c.node(1).worker.progress();
    }
    while (e.outstanding() > 0) co_await c.node(1).worker.progress();
  }(cl, ep12));
  cl.sim().run();
  // Traffic between nodes 1 and 2 never crosses node 0's link.
  EXPECT_EQ(cl.analyzer().trace().size(), 0u);
  EXPECT_EQ(cl.analyzer_node(), 0);
}

TEST(Cluster, AnalyzerPlaceableOnAnyNode) {
  // Same traffic as above, but the analyzer rides node 1's link, where
  // the sender's descriptor MMIO must show up.
  Cluster cl(presets::deterministic(), 3, /*analyzer_node=*/1);
  EXPECT_EQ(cl.analyzer_node(), 1);
  auto& ep12 = cl.add_endpoint(1, 2);
  cl.sim().spawn([](Cluster& c, llp::Endpoint& e) -> sim::Task<void> {
    while (co_await e.put_short(8) != llp::Status::kOk) {
      co_await c.node(1).worker.progress();
    }
    while (e.outstanding() > 0) co_await c.node(1).worker.progress();
  }(cl, ep12));
  cl.sim().run();
  EXPECT_GT(cl.analyzer().trace().size(), 0u);
}

TEST(Cluster, AnalyzerOnBystanderNodeSeesNothing) {
  // Analyzer on node 2, traffic strictly between 0 and 1.
  Cluster cl(presets::deterministic(), 3, /*analyzer_node=*/2);
  auto& ep01 = cl.add_endpoint(0, 1);
  cl.sim().spawn([](Cluster& c, llp::Endpoint& e) -> sim::Task<void> {
    while (co_await e.put_short(8) != llp::Status::kOk) {
      co_await c.node(0).worker.progress();
    }
    while (e.outstanding() > 0) co_await c.node(0).worker.progress();
  }(cl, ep01));
  cl.sim().run();
  EXPECT_EQ(cl.analyzer().trace().size(), 0u);
}

}  // namespace
}  // namespace bb::scenario
