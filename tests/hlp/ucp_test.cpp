#include "hlp/ucp.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "scenario/cluster.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

TEST(Ucp, ShortSendCompletesLocally) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack s(tb, 0);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = (co_await st.ucp().tag_send_nb(1, 8)).value();
    // Inlined short send: complete as soon as the LLP post succeeded.
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(r->pending);
  }(s));
  tb.sim().run();
  EXPECT_EQ(s.ucp().sends_completed(), 1u);
}

TEST(Ucp, SendCostIsUcpPlusLlp) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack s(tb, 0);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(1, 8);
    // 2.19 (UCP) + 175.42 (LLP_post).
    EXPECT_NEAR(st.node().core.virtual_now().to_ns(), 177.61, 1e-6);
  }(s));
  tb.sim().run();
}

TEST(Ucp, BusyPostPendsAndProgressRetries) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  MpiStack s(tb, 0, /*signal_period=*/1);
  tb.node(1).nic.post_receives(8);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* a = (co_await st.ucp().tag_send_nb(1, 8)).value();
    Request* b = (co_await st.ucp().tag_send_nb(1, 8)).value();
    EXPECT_TRUE(a->complete);
    EXPECT_FALSE(b->complete);
    EXPECT_TRUE(b->pending);
    EXPECT_EQ(st.ucp().pending_sends(), 1u);
    // Progress until the CQE frees the slot and the pending send runs.
    while (!b->complete) {
      co_await st.ucp().progress();
    }
    EXPECT_EQ(st.ucp().pending_sends(), 0u);
  }(s));
  tb.sim().run();
  EXPECT_EQ(s.endpoint().posted(), 2u);
}

TEST(Ucp, PendingWorkCountsBusyPosts) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  MpiStack s(tb, 0, /*signal_period=*/1);
  tb.node(1).nic.post_receives(8);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    EXPECT_FALSE(st.ucp().has_pending_work());
    (void)co_await st.ucp().tag_send_nb(1, 8);
    EXPECT_FALSE(st.ucp().has_pending_work());
    Request* b = (co_await st.ucp().tag_send_nb(1, 8)).value();
    Request* c = (co_await st.ucp().tag_send_nb(1, 8)).value();
    EXPECT_EQ(st.ucp().pending_sends(), 2u);
    EXPECT_TRUE(st.ucp().has_pending_work());
    for (int i = 0; i < 100000 && !b->complete; ++i) {
      co_await st.ucp().progress();
    }
    EXPECT_TRUE(st.ucp().has_pending_work());  // c still pends
    for (int i = 0; i < 100000 && !c->complete; ++i) {
      co_await st.ucp().progress();
    }
    EXPECT_TRUE(c->complete);
    EXPECT_FALSE(st.ucp().has_pending_work());
  }(s));
  tb.sim().run();
  EXPECT_EQ(s.endpoint().posted(), 3u);
}

TEST(Ucp, PendingWorkCountsQueuedRts) {
  // With one TxQ slot, taken by an eager send, the RTS of a rendezvous
  // send stays queued until a progress pass can post it.
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  MpiStack tx(tb, 0, 1);
  MpiStack rx(tb, 1, 1);
  tb.node(0).nic.post_receives(64);
  tb.node(1).nic.post_receives(64);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(1, 8);
    Request* r = (co_await st.ucp().tag_send_nb(1, 4096)).value();
    EXPECT_EQ(st.ucp().pending_sends(), 0u);
    EXPECT_TRUE(st.ucp().has_pending_work());
    for (int i = 0; i < 100000 && !r->complete; ++i) {
      co_await st.ucp().progress();
    }
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(st.ucp().has_pending_work());
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* eager = st.ucp().tag_recv_nb(0, 8).value();
    Request* rndv = st.ucp().tag_recv_nb(0, 4096).value();
    for (int i = 0; i < 100000 && !(eager->complete && rndv->complete); ++i) {
      co_await st.ucp().progress();
    }
    EXPECT_TRUE(rndv->complete);
    EXPECT_FALSE(st.ucp().has_pending_work());
  }(rx));
  tb.sim().run();
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u + 4096u + 16u);
}

TEST(Ucp, PendingWorkCountsQueuedCtsAndRendezvousData) {
  // One TxQ slot per side. The receiver's slot holds its own eager send
  // when the RTS lands, so its CTS queues; the sender's slot holds the
  // payload put when the FIN is due (or the RTS when the put is), so its
  // rendezvous data queues. Neither side has a pending send, so the
  // queued work is that control message and that data transfer.
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  MpiStack tx(tb, 0, 1);
  MpiStack rx(tb, 1, 1);
  tb.node(0).nic.post_receives(64);
  tb.node(1).nic.post_receives(64);
  bool data_queued = false;
  bool cts_queued = false;
  tb.sim().spawn([](MpiStack& st, bool& queued) -> sim::Task<void> {
    Request* r = (co_await st.ucp().tag_send_nb(1, 4096)).value();
    EXPECT_FALSE(st.ucp().has_pending_work());  // the RTS went out
    for (int i = 0; i < 100000 && !r->complete; ++i) {
      co_await st.ucp().progress();
      EXPECT_EQ(st.ucp().pending_sends(), 0u);
      queued = queued || st.ucp().has_pending_work();
    }
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(st.ucp().has_pending_work());
  }(tx, data_queued));
  tb.sim().spawn([](MpiStack& st, bool& queued) -> sim::Task<void> {
    Request* r = st.ucp().tag_recv_nb(0, 4096).value();
    (void)co_await st.ucp().tag_send_nb(0, 8);
    for (int i = 0; i < 100000 && !r->complete; ++i) {
      co_await st.ucp().progress();
      EXPECT_EQ(st.ucp().pending_sends(), 0u);
      queued = queued || st.ucp().has_pending_work();
    }
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(st.ucp().has_pending_work());
  }(rx, cts_queued));
  tb.sim().run();
  EXPECT_TRUE(cts_queued);
  EXPECT_TRUE(data_queued);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 4096u + 16u);
}

TEST(Ucp, PendingSendsPreserveOrder) {
  auto cfg = scenario::presets::deterministic();
  cfg.endpoint.txq_depth = 1;
  Testbed tb(cfg);
  MpiStack tx(tb, 0, 1);
  MpiStack rx(tb, 1, 1);
  tb.node(1).nic.post_receives(16);
  std::vector<std::uint64_t> arrival_order;
  tb.node(1).worker.set_rx_handler(
      [&](const nic::Cqe& c) { arrival_order.push_back(c.msg_id); });

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    std::vector<Request*> reqs;
    for (int i = 0; i < 4; ++i) {
      reqs.push_back((co_await st.ucp().tag_send_nb(1, 8)).value());
    }
    for (Request* r : reqs) {
      while (!r->complete) co_await st.ucp().progress();
    }
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    // Poll long enough to cover four serialized round trips (txq depth 1
    // forces each pending send to wait for the previous CQE).
    for (int i = 0; i < 1500; ++i) co_await st.ucp().progress();
  }(rx));
  tb.sim().run();
  ASSERT_EQ(arrival_order.size(), 4u);
  EXPECT_TRUE(std::is_sorted(arrival_order.begin(), arrival_order.end()));
}

TEST(Ucp, RecvMatchesInboundMessage) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(1, 8);
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = st.ucp().tag_recv_nb(0, 8).value();
    while (!r->complete) co_await st.ucp().progress();
    EXPECT_EQ(st.ucp().recvs_completed(), 1u);
  }(rx));
  tb.sim().run();
}

TEST(Ucp, UnexpectedMessageMatchedByLaterRecv) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(1, 8);
  }(tx));
  tb.sim().spawn([](Testbed& t, MpiStack& st) -> sim::Task<void> {
    // Drain progress with no posted receive: the message goes unexpected.
    while (st.ucp().recvs_completed() == 0) {
      co_await st.ucp().progress();
      if (t.sim().now() > 5_us) break;
    }
    EXPECT_EQ(st.ucp().recvs_completed(), 0u);
    // A late recv matches the unexpected message immediately.
    Request* r = st.ucp().tag_recv_nb(0, 8).value();
    EXPECT_TRUE(r->complete);
    EXPECT_EQ(st.ucp().recvs_completed(), 1u);
  }(tb, rx));
  tb.sim().run();
}

TEST(Ucp, RxCallbackChainChargesUcpThenUpper) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);
  double upper_called_at = -1;
  rx.ucp().set_upper_rx_callback([&](Request*) {
    upper_called_at = rx.node().core.virtual_now().to_ns();
    rx.node().core.consume(rx.node().core.costs().mpich_rx_callback);
  });

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    (void)co_await st.ucp().tag_send_nb(1, 8);
  }(tx));
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = st.ucp().tag_recv_nb(0, 8).value();
    while (!r->complete) co_await st.ucp().progress();
  }(rx));
  tb.sim().run();
  EXPECT_GT(upper_called_at, 0.0);
}

TEST(Ucp, MultiPeerMatchingKeepsSourcesApart) {
  // Node 0's worker is connected to nodes 1 and 2; each of those runs its
  // own one-peer worker. Node 0 posts its receives from node 2 first, yet
  // node 1's eager and rendezvous messages, which arrive first, must
  // complete only node 1's receives, in the order node 1 sent them.
  scenario::Cluster cl(scenario::presets::deterministic(), 3);
  UcpWorker hub(cl.node(0).worker);
  hub.connect(cl.add_endpoint(0, 1));
  hub.connect(cl.add_endpoint(0, 2));
  UcpWorker w1(cl.node(1).worker);
  w1.connect(cl.add_endpoint(1, 0));
  UcpWorker w2(cl.node(2).worker);
  w2.connect(cl.add_endpoint(2, 0));
  for (int n = 0; n < 3; ++n) cl.node(n).nic.post_receives(16);

  std::vector<Request*> completed;
  hub.set_upper_rx_callback([&](Request* r) { completed.push_back(r); });
  Request* from2_eager = hub.tag_recv_nb(2, 8).value();
  Request* from2_rndv = hub.tag_recv_nb(2, 2048).value();
  Request* from1_eager = hub.tag_recv_nb(1, 8).value();
  Request* from1_rndv = hub.tag_recv_nb(1, 2048).value();

  cl.sim().spawn([](UcpWorker& w,
                    std::vector<Request*>& done) -> sim::Task<void> {
    while (done.size() < 4) co_await w.progress();
  }(hub, completed));
  const auto sender = [](UcpWorker& w, sim::Simulator& sim,
                         const std::function<bool()>& go) -> sim::Task<void> {
    while (!go()) co_await sim.delay(100_ns);
    (void)co_await w.tag_send_nb(0, 8);
    Request* r = (co_await w.tag_send_nb(0, 2048)).value();
    while (!r->complete) co_await w.progress();
  };
  const std::function<bool()> first = [] { return true; };
  // Node 2 sends only after node 0 has matched both of node 1's messages.
  const std::function<bool()> after_node1 = [&] {
    return completed.size() == 2;
  };
  cl.sim().spawn(sender(w1, cl.sim(), first));
  cl.sim().spawn(sender(w2, cl.sim(), after_node1));
  cl.sim().run();

  EXPECT_EQ(completed, (std::vector<Request*>{from1_eager, from1_rndv,
                                              from2_eager, from2_rndv}));
  EXPECT_EQ(w1.rndv_sends(), 1u);
  EXPECT_EQ(w2.rndv_sends(), 1u);
  EXPECT_EQ(hub.recvs_completed(), 4u);
}

}  // namespace
}  // namespace bb::hlp
