// The NIC's RC transport under wire faults (docs/TRANSPORT.md): PSN
// tracking, NAK-driven go-back-N, the transport retry timer, RNR NAK
// backoff for late-posted receives, duplicate discard, and the full
// error path -- retry exhaustion -> QP error -> flushed error CQEs ->
// modify-QP recovery ladder -> traffic resumes.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "nic/nic.hpp"
#include "scenario/testbed.hpp"

namespace bb::nic {
namespace {

using scenario::Testbed;

/// Posts `n` ops on `ep` and polls until every completion retires.
sim::Task<void> pump(Testbed::Node& node, llp::Endpoint& ep, int n,
                     bool am = false) {
  for (int i = 0; i < n; ++i) {
    const llp::Status st =
        am ? co_await ep.am_short(8) : co_await ep.put_short(8);
    EXPECT_EQ(st, llp::Status::kOk);
  }
  while (ep.outstanding() > 0) {
    co_await node.worker.progress();
  }
}

scenario::SystemConfig with_wire(fault::WireFaultConfig w) {
  return scenario::presets::deterministic().with(
      scenario::overlays::wire_faults(std::move(w)));
}

void expect_conserved(const net::TransportStats& s) {
  EXPECT_EQ(s.packets_sent + s.packets_duplicated,
            s.packets_delivered + s.packets_dropped + s.packets_corrupted);
}

TEST(RcTransport, RnrNakRecoversLatePostedReceive) {
  // Regression for the old hard "RNR: send arrived with no posted
  // receive" error: the responder now refuses with an RNR NAK and the
  // requester backs off and retries until the receive shows up. No wire
  // faults involved -- this is a pure protocol-level recovery.
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 1, /*am=*/true));
  // The receive is posted ~3 us late, past several RNR backoff rounds.
  tb.sim().call_in(TimePs::from_ns(3000.0),
                   [&] { tb.node(1).nic.post_receives(4); });
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_GE(s.rnr_naks_sent, 1u);
  EXPECT_EQ(s.rnr_naks_sent, s.rnr_naks_received);
  EXPECT_EQ(s.qp_errors, 0u);
  EXPECT_EQ(tb.node(0).nic.qp_state(ep.qp()), QpState::kRts);
  // Exactly-once delivery despite the refusals.
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(1).nic.rq_available(), 3u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
}

TEST(RcTransport, DroppedDataRecoveredByRetryTimer) {
  // A lone packet is dropped: no successor ever reveals the PSN gap, so
  // only the transport retry timer can recover it.
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDropData, 0, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 1));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.packets_dropped, 1u);
  EXPECT_GE(s.retry_timer_firings, 1u);
  EXPECT_GE(s.retransmits, 1u);
  EXPECT_EQ(s.qp_errors, 0u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.acks_received(), 1u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  expect_conserved(s);
}

TEST(RcTransport, DroppedAckRecoveredByDuplicateDiscard) {
  // The data arrives but its ACK is lost: the retry timer retransmits,
  // the responder discards the stale PSN and re-ACKs -- delivery stays
  // exactly-once.
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDropAck, 1, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 1));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.packets_dropped, 1u);  // the ACK
  EXPECT_GE(s.retransmits, 1u);
  EXPECT_GE(s.duplicates_discarded, 1u);
  // The payload was written exactly once despite the retransmission.
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.acks_received(), 1u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  expect_conserved(s);
}

TEST(RcTransport, ReorderedPacketTriggersNakGoBackN) {
  // PSN 1 is delayed past PSN 2: the responder NAKs the gap, the
  // requester goes back to 1, and whichever copy of each PSN lands first
  // is accepted -- the stragglers are discarded by PSN.
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kReorderData, 0, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 2));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.packets_reordered, 1u);
  EXPECT_GE(s.naks_sent, 1u);
  EXPECT_EQ(s.naks_sent, s.naks_received);
  EXPECT_GE(s.retransmits, 1u);
  EXPECT_EQ(s.qp_errors, 0u);
  // Exactly-once: two 8-byte payload writes, no more.
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 16u);
  EXPECT_EQ(tb.node(0).nic.acks_received(), 2u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  expect_conserved(s);
}

TEST(RcTransport, DuplicatedDataDiscardedByPsn) {
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDuplicateData, 0, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 1));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.packets_duplicated, 1u);
  EXPECT_EQ(s.duplicates_discarded, 1u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.acks_received(), 1u);
  expect_conserved(s);
}

TEST(RcTransport, RetryExhaustionErrorsFlushesAndRecovers) {
  // The full acceptance chain: a persistently killed PSN exhausts the
  // retry budget -> QP error -> the head WQE retires kIoError and the
  // rest kFlushed -> the endpoint reports the error -> reconnect() walks
  // the modify-QP ladder -> traffic resumes on the recovered QP.
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kKillData, 0, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);

  tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
    auto& n0 = t.node(0);
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);  // PSN 1: killed
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);  // PSN 2: stuck
    while (e.outstanding() > 0) co_await n0.worker.progress();

    // Retry budget exhausted: QP error, both WQEs flushed with errors.
    EXPECT_TRUE(e.qp_in_error());
    EXPECT_EQ(n0.nic.qp_state(e.qp()), QpState::kError);
    EXPECT_EQ(e.tx_errors(), 2u);   // kIoError + kFlushed
    EXPECT_EQ(e.tx_flushed(), 1u);  // the op behind the killed one
    EXPECT_EQ(n0.worker.flushed_completions(), 1u);
    EXPECT_EQ(n0.nic.tx_unacked(), 0u);

    // Posts against the errored QP flush immediately, never reaching the
    // wire (verbs semantics).
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
    while (e.outstanding() > 0) co_await n0.worker.progress();
    EXPECT_EQ(e.tx_flushed(), 2u);

    // Recovery: reset -> connect handshake -> RTS.
    EXPECT_EQ(co_await e.reconnect(), llp::Status::kOk);
    EXPECT_FALSE(e.qp_in_error());
    EXPECT_EQ(n0.nic.qp_state(e.qp()), QpState::kRts);

    // The recovered QP carries traffic again (fresh PSN, so the
    // scheduled kill cannot re-trigger).
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
    while (e.outstanding() > 0) co_await n0.worker.progress();
  }(tb, ep));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.qp_errors, 1u);
  EXPECT_EQ(s.qp_recoveries, 1u);
  EXPECT_EQ(s.flushed_wqes, 3u);  // 2 at qp_error + 1 post-while-errored
  EXPECT_GT(s.retry_timer_firings, 0u);
  // Only the post-recovery put ever landed.
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
}

TEST(RcTransport, TransportCountersReachTheProfiler) {
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDropData, 0, 1});
  Testbed tb(with_wire(w));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 1));
  tb.sim().run();

  tb.publish_net_counters();
  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(tb.node(0).profiler.counter("net.packets_sent"), s.packets_sent);
  EXPECT_EQ(tb.node(0).profiler.counter("net.packets_dropped"),
            s.packets_dropped);
  EXPECT_EQ(tb.node(0).profiler.counter("net.retransmits"), s.retransmits);
}

/// Polls `node`'s worker every 50 ns until `done()` holds.
template <typename Pred>
sim::Task<void> poll_until(Testbed::Node& node, Pred done) {
  while (!done()) {
    co_await node.worker.core().simulator().delay(TimePs::from_ns(50.0));
    co_await node.worker.progress();
  }
}

TEST(RcTransport, ResetDuringRnrBackoffCancelsIt) {
  // qp_reset while an RNR backoff is pending withdraws it: the refused
  // send is flushed, never retransmitted, and the recovered QP carries
  // the next put on its own.
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  std::vector<std::int64_t> at;
  tb.sim().spawn([](Testbed& t, llp::Endpoint& e,
                    std::vector<std::int64_t>& stamps) -> sim::Task<void> {
    auto& n0 = t.node(0);
    auto& nic = n0.nic;
    const auto now = [&t] { return t.sim().now().ps(); };
    // No receive is posted at node 1: the send is refused.
    EXPECT_EQ(co_await e.am_short(8), llp::Status::kOk);
    co_await poll_until(n0, [&] {
      return nic.transport_stats().rnr_naks_received > 0;
    });
    stamps.push_back(now());
    nic.qp_reset(e.qp());  // the backoff is still pending
    co_await poll_until(n0, [&] { return e.outstanding() == 0; });
    stamps.push_back(now());
    EXPECT_EQ(e.tx_flushed(), 1u);
    nic.qp_connect(e.qp(), 1);
    co_await poll_until(
        n0, [&] { return nic.qp_state(e.qp()) == QpState::kRts; });
    stamps.push_back(now());
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
    co_await poll_until(n0, [&] { return e.outstanding() == 0; });
    stamps.push_back(now());
  }(tb, ep, at));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.rnr_naks_sent, 1u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.packets_sent, 6u);
  EXPECT_EQ(s.qp_recoveries, 1u);
  EXPECT_EQ(s.flushed_wqes, 1u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  EXPECT_EQ(at,
            (std::vector<std::int64_t>{1195420, 1715050, 3007050, 4654100}));
}

TEST(RcTransport, ResetDuringRecoveryDelaySendsOneConnect) {
  // A second qp_reset inside the first qp_connect's kQpRecoveryNs
  // withdraws that connect: only the second connect reaches the wire.
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  std::vector<std::int64_t> at;
  tb.sim().spawn([](Testbed& t, llp::Endpoint& e,
                    std::vector<std::int64_t>& stamps) -> sim::Task<void> {
    auto& n0 = t.node(0);
    auto& nic = n0.nic;
    const auto now = [&t] { return t.sim().now().ps(); };
    nic.qp_reset(e.qp());
    nic.qp_connect(e.qp(), 1);
    co_await t.sim().delay(TimePs::from_ns(Nic::kQpRecoveryNs / 2));
    EXPECT_EQ(nic.qp_state(e.qp()), QpState::kConnecting);
    stamps.push_back(now());
    nic.qp_reset(e.qp());
    nic.qp_connect(e.qp(), 1);
    co_await poll_until(
        n0, [&] { return nic.qp_state(e.qp()) == QpState::kRts; });
    stamps.push_back(now());
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
    co_await poll_until(n0, [&] { return e.outstanding() == 0; });
    stamps.push_back(now());
  }(tb, ep, at));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.packets_sent, 4u);  // one connect, its ack, the put, its ACK
  EXPECT_EQ(s.data_packets_sent, 1u);
  EXPECT_EQ(s.qp_recoveries, 1u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(tb.node(1).host.payload_bytes_delivered(), 8u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  EXPECT_EQ(at, (std::vector<std::int64_t>{250000, 1542000, 3189050}));
}

TEST(RcTransport, LossFreeRunsKeepProtocolStateOnly) {
  // With no wire faults configured the RC machinery is pure bookkeeping:
  // no retry timers, no NAKs, no retransmissions -- the property that
  // keeps the error-free determinism goldens bit-identical.
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn(pump(tb.node(0), ep, 4));
  tb.sim().run();

  const net::TransportStats s = tb.net_stats();
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.retry_timer_firings, 0u);
  EXPECT_EQ(s.naks_sent, 0u);
  EXPECT_EQ(s.packets_dropped, 0u);
  EXPECT_EQ(s.data_packets_sent, 4u);
  EXPECT_EQ(s.acks_sent, 4u);
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 0u);
  expect_conserved(s);
}

TEST(RcTransport, LossyWireThatDropsNothingMatchesLossFree) {
  // A lossy wire arms a retry timer per outstanding packet, and every ACK
  // withdraws it. A withdrawn timer is no event and does not move now():
  // when nothing is lost the run ends exactly like the loss-free one.
  const auto run = [](const scenario::SystemConfig& cfg) {
    Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn(pump(tb.node(0), ep, 40));
    tb.sim().run();
    EXPECT_EQ(tb.net_stats().retry_timer_firings, 0u);
    return std::pair{tb.sim().now().ps(), tb.sim().events_processed()};
  };
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDropData, 0, 1000000});
  const auto lossy = run(with_wire(w));
  const auto plain = run(scenario::presets::deterministic());
  EXPECT_EQ(lossy, plain);
  EXPECT_EQ(plain.first, 9482000);
}

}  // namespace
}  // namespace bb::nic
