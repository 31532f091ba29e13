// The rendezvous protocol: RTS -> CTS -> one-sided payload put -> FIN.
// Large sends advertise instead of pushing eagerly; the payload crosses
// the PCIe bus and wire exactly once, against an extra control round trip.

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;

struct Pair {
  Testbed tb;
  MpiStack a;
  MpiStack b;
  explicit Pair(scenario::SystemConfig cfg)
      : tb(std::move(cfg)), a(tb, 0), b(tb, 1) {
    // Control messages (RTS/CTS/FIN) consume receives on both sides.
    tb.node(0).nic.post_receives(64);
    tb.node(1).nic.post_receives(64);
  }
};

TEST(Rndv, SmallSendsStayEager) {
  Pair p(scenario::presets::deterministic());
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* r = (co_await pr.a.ucp().tag_send_nb(1, 512)).value();
    EXPECT_TRUE(r->complete);  // eager: locally complete
  }(p));
  p.tb.sim().run();
  EXPECT_EQ(p.a.ucp().rndv_sends(), 0u);
}

TEST(Rndv, LargeSendUsesRendezvous) {
  Pair p(scenario::presets::deterministic());
  bool recv_done = false;
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* s = (co_await pr.a.ucp().tag_send_nb(1, 2048)).value();
    EXPECT_FALSE(s->complete);  // awaiting CTS
    while (!s->complete) co_await pr.a.ucp().progress();
  }(p));
  p.tb.sim().spawn([](Pair& pr, bool& done) -> sim::Task<void> {
    Request* r = pr.b.ucp().tag_recv_nb(0, 2048).value();
    while (!r->complete) co_await pr.b.ucp().progress();
    done = true;
  }(p, recv_done));
  p.tb.sim().run();

  EXPECT_TRUE(recv_done);
  EXPECT_EQ(p.a.ucp().rndv_sends(), 1u);
  // Receiver saw the 2048 B payload plus the 8 B RTS and FIN.
  EXPECT_EQ(p.tb.node(1).host.payload_bytes_delivered(), 2048u + 16u);
  // Sender saw the 8 B CTS.
  EXPECT_EQ(p.tb.node(0).host.payload_bytes_delivered(), 8u);
}

TEST(Rndv, UnexpectedRtsMatchedByLateRecv) {
  Pair p(scenario::presets::deterministic());
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* s = (co_await pr.a.ucp().tag_send_nb(1, 4096)).value();
    while (!s->complete) co_await pr.a.ucp().progress();
  }(p));
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    // Progress without a posted receive until the RTS has surely landed.
    for (int i = 0; i < 200; ++i) co_await pr.b.ucp().progress();
    EXPECT_EQ(pr.b.ucp().recvs_completed(), 0u);
    Request* r = pr.b.ucp().tag_recv_nb(0, 4096).value();
    while (!r->complete) co_await pr.b.ucp().progress();
  }(p));
  p.tb.sim().run();
  EXPECT_EQ(p.b.ucp().recvs_completed(), 1u);
  EXPECT_EQ(p.tb.node(1).host.payload_bytes_delivered(), 4096u + 16u);
}

TEST(Rndv, UnexpectedRtsMatchesBeforeALaterEagerMessage) {
  // Both messages arrive before any receive is posted: the RTS first,
  // then the eager one. Receives match in arrival order, so the first
  // receive answers the RTS and the second takes the eager payload.
  Pair p(scenario::presets::deterministic());
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* large = (co_await pr.a.ucp().tag_send_nb(1, 2048)).value();
    (void)co_await pr.a.ucp().tag_send_nb(1, 8);
    while (!large->complete) co_await pr.a.ucp().progress();
  }(p));
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) co_await pr.b.ucp().progress();
    EXPECT_EQ(pr.b.ucp().recvs_completed(), 0u);
    Request* large = pr.b.ucp().tag_recv_nb(0, 2048).value();
    EXPECT_FALSE(large->complete);  // a CTS is owed first
    Request* small = pr.b.ucp().tag_recv_nb(0, 8).value();
    EXPECT_TRUE(small->complete);  // the eager payload already landed
    while (!large->complete || !small->complete) {
      co_await pr.b.ucp().progress();
    }
  }(p));
  p.tb.sim().run();
  EXPECT_EQ(p.b.ucp().recvs_completed(), 2u);
  // The 2048 B payload, the 8 B message, and the 8 B RTS and FIN.
  EXPECT_EQ(p.tb.node(1).host.payload_bytes_delivered(), 2048u + 8u + 16u);
}

TEST(Rndv, MpiWaitDrivesRendezvousSend) {
  Pair p(scenario::presets::deterministic());
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* s = (co_await pr.a.mpi().isend(8192)).value();
    co_await pr.a.mpi().wait(s);
    EXPECT_TRUE(s->complete);
  }(p));
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* r = pr.b.mpi().irecv(8192).value();
    co_await pr.b.mpi().wait(r);
  }(p));
  p.tb.sim().run();
  EXPECT_EQ(p.tb.node(1).host.payload_bytes_delivered(), 8192u + 16u);
}

TEST(Rndv, PayloadCrossesWireOnceAndControlThrice) {
  Pair p(scenario::presets::deterministic());
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* s = (co_await pr.a.ucp().tag_send_nb(1, 2048)).value();
    while (!s->complete) co_await pr.a.ucp().progress();
  }(p));
  p.tb.sim().spawn([](Pair& pr) -> sim::Task<void> {
    Request* r = pr.b.ucp().tag_recv_nb(0, 2048).value();
    while (!r->complete) co_await pr.b.ucp().progress();
  }(p));
  p.tb.sim().run();
  // Node 0 injected RTS + payload + FIN; node 1 injected CTS.
  EXPECT_EQ(p.tb.node(0).nic.messages_injected(), 3u);
  EXPECT_EQ(p.tb.node(1).nic.messages_injected(), 1u);
}

TEST(Rndv, RendezvousSlowerThanEagerAtThresholdBoundary) {
  // Just below the threshold the eager path wins (no control round
  // trip); the protocol switch exists for memory/copy reasons at sizes
  // where the simulation's inline modelling ends.
  auto run = [](std::uint32_t bytes) {
    Pair p(scenario::presets::deterministic());
    double done_ns = 0;
    p.tb.sim().spawn([](Pair& pr, std::uint32_t n) -> sim::Task<void> {
      Request* s = (co_await pr.a.ucp().tag_send_nb(1, n)).value();
      while (!s->complete) co_await pr.a.ucp().progress();
    }(p, bytes));
    p.tb.sim().spawn([](Pair& pr, std::uint32_t n, double& out) -> sim::Task<void> {
      Request* r = pr.b.ucp().tag_recv_nb(0, n).value();
      while (!r->complete) co_await pr.b.ucp().progress();
      out = pr.b.node().core.virtual_now().to_ns();
    }(p, bytes, done_ns));
    p.tb.sim().run();
    return done_ns;
  };
  const double eager = run(1023);   // below threshold
  const double rndv = run(1024);    // at threshold
  // The rendezvous pays roughly an extra network round trip.
  EXPECT_GT(rndv, eager + 500.0);
}

}  // namespace
}  // namespace bb::hlp
