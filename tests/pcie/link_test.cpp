#include "pcie/link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bb::pcie {
namespace {

using namespace bb::literals;

Tlp pio_post(std::uint64_t msg_id) {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = 64;
  DescriptorWrite dw;
  dw.md.msg_id = msg_id;
  dw.md.payload_bytes = 8;
  t.content = dw;
  return t;
}

TEST(LinkParams, LatencyIsAffineInBytes) {
  LinkParams p;
  EXPECT_NEAR(p.tlp_latency(0).to_ns(), p.base_latency_ns, 1e-9);
  EXPECT_NEAR(p.tlp_latency(64).to_ns(), p.base_latency_ns + 64 * p.per_byte_ns,
              1e-9);
}

TEST(LinkParams, MeasuredPcieMatchesPaperCalibration) {
  // The default link is calibrated so the paper's methodology (half the
  // MWr->Ack round trip) yields PCIe ~= 137.49 ns.
  LinkParams p;
  EXPECT_NEAR(p.measured_pcie_ns(), 137.49, 0.2);
}

TEST(Link, DownstreamDeliveryTiming) {
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p);
  double arrival = -1;
  link.set_b_tlp_handler([&](const Tlp&) { arrival = sim.now().to_ns(); });
  link.send_downstream(pio_post(1));
  sim.run();
  EXPECT_NEAR(arrival, p.tlp_latency(64).to_ns(), 1e-6);
}

TEST(Link, UpstreamPostWaitsForReleasedCredits) {
  // The NIC side's budget holds one 64 B write. The second write waits
  // for the UpdateFC the A side sends as the first one lands.
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p, nullptr, nullptr, CreditState::default_endpoint(),
            CreditState::with_budget({1, 4}, {1, 1}, {1, 4}));
  std::vector<std::int64_t> arrivals;
  link.set_a_tlp_handler([&](const Tlp& t) {
    arrivals.push_back(sim.now().ps());
    link.release_credits(t);
  });
  link.post(Direction::kUpstream, pio_post(1));
  link.post(Direction::kUpstream, pio_post(2));
  sim.run();

  const TimePs l64 = p.tlp_latency(64);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], l64.ps());
  EXPECT_EQ(arrivals[1], (l64 + p.dllp_latency() + l64).ps());
  EXPECT_EQ(link.credit_stalls(Direction::kUpstream), 1u);
  EXPECT_EQ(link.credit_stalls(Direction::kDownstream), 0u);
  EXPECT_EQ(link.issued(Direction::kUpstream), 2u);
  EXPECT_EQ(link.credits(Direction::kUpstream)
                .outstanding_headers(CreditClass::kPosted),
            0);
}

TEST(Link, DestroyedWhileAPostWaitsForCredits) {
  // Nothing returns credits: the second and third writes still wait in
  // the upstream post queue for an UpdateFC that never comes when the
  // Link and then the Simulator are torn down.
  sim::Simulator sim;
  Link link(sim, LinkParams{}, nullptr, nullptr,
            CreditState::default_endpoint(),
            CreditState::with_budget({1, 4}, {1, 1}, {1, 4}));
  int delivered = 0;
  link.set_a_tlp_handler([&](const Tlp&) { ++delivered; });
  for (std::uint64_t i = 1; i <= 3; ++i) {
    link.post(Direction::kUpstream, pio_post(i));
  }
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(link.credit_stalls(Direction::kUpstream), 1u);
  EXPECT_EQ(link.issued(Direction::kUpstream), 1u);
}

TEST(Link, PostWithCreditsLeavesInThePostingEvent) {
  // Credits are free: the write is transmitted inside the event that
  // posts it, so the run holds that event and the arrival, nothing else.
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p);
  std::int64_t arrival = -1;
  link.set_b_tlp_handler([&](const Tlp&) { arrival = sim.now().ps(); });
  sim.call_at(100_ns, [&] {
    link.post(Direction::kDownstream, pio_post(1));
    EXPECT_EQ(link.issued(Direction::kDownstream), 1u);
    EXPECT_EQ(link.tlps_accepted(), 1u);
  });
  sim.run();
  EXPECT_EQ(arrival, (100_ns + p.tlp_latency(64)).ps());
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(link.credit_stalls(Direction::kDownstream), 0u);
}

TEST(Link, StalledPostIssuesInsideTheFreeingUpdateFcArrival) {
  // A one-write budget: the second write stalls once and leaves inside
  // the arrival event of the UpdateFC the first write's landing sends.
  // Events: the first write's arrival, that UpdateFC's arrival, the
  // second write's arrival. Acks and the last UpdateFC are elided.
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p, nullptr, nullptr, CreditState::default_endpoint(),
            CreditState::with_budget({1, 4}, {1, 1}, {1, 4}));
  std::vector<std::int64_t> arrivals;
  link.set_a_tlp_handler([&](const Tlp& t) {
    arrivals.push_back(sim.now().ps());
    link.release_credits(t);
  });
  link.post(Direction::kUpstream, pio_post(1));
  link.post(Direction::kUpstream, pio_post(2));
  EXPECT_EQ(link.issued(Direction::kUpstream), 1u);
  sim.run();

  const TimePs l64 = p.tlp_latency(64);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], (l64 + p.dllp_latency() + l64).ps());
  EXPECT_EQ(sim.events_processed(), 3u);
  EXPECT_EQ(link.credit_stalls(Direction::kUpstream), 1u);
  EXPECT_EQ(link.issued(Direction::kUpstream), 2u);
}

TEST(Link, PostOrderedBeforeASamePicosecondUpdateFcDepartsFirst) {
  // At 1000 ns two events share the picosecond: the first posts a
  // downstream write, the second returns an upstream write's credits
  // with a downstream UpdateFC. The write is issued in its own event, so
  // it holds the transmitter first and the UpdateFC leaves one TLP
  // serialization later.
  sim::Simulator sim;
  Analyzer tap;
  LinkParams p;
  Link link(sim, p, &tap);
  Tlp landed;
  link.set_a_tlp_handler([&](const Tlp& t) { landed = t; });
  link.set_b_tlp_handler([](const Tlp&) {});
  link.post(Direction::kUpstream, pio_post(1));
  sim.call_at(1000_ns,
              [&] { link.post(Direction::kDownstream, pio_post(2)); });
  sim.call_at(1000_ns, [&] { link.release_credits(landed); });
  sim.run();

  // Downstream packets are traced as they arrive at the NIC.
  const auto late = tap.trace().filter([](const TraceRecord& r) {
    return r.dir == Direction::kDownstream && r.t >= 1000_ns;
  });
  ASSERT_EQ(late.size(), 2u);
  EXPECT_FALSE(late[0].is_dllp);
  EXPECT_EQ(late[0].t, 1000_ns + p.tlp_latency(64));
  EXPECT_TRUE(late[1].is_dllp);
  EXPECT_EQ(late[1].dllp_type, DllpType::kUpdateFC);
  EXPECT_EQ(late[1].t, 1000_ns + p.serialize(64) + p.dllp_latency());
}

TEST(LinkDeathTest, PostedWritePastItsClassBudgetAborts) {
  // 16,392 B needs 1025 posted data units; the budget advertises 1024, so
  // the write could never issue. post() fails instead of waiting.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Link link(sim, LinkParams{});
        Tlp t;
        t.type = TlpType::kMemWrite;
        t.bytes = 16392;
        link.post(Direction::kUpstream, std::move(t));
        sim.run();
      },
      "more credits than its class's budget");
}

TEST(Link, AckDelaysAnUpstreamWriteSentRightAfterArrival) {
  // No analyzer, no injector: nothing observes the Ack, yet it still
  // occupies the upstream transmitter from ack_processing_ns after the
  // TLP's arrival, so a MWr queued behind it at that instant leaves one
  // DLLP serialization later.
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p);
  TimePs down_arrival = TimePs::zero();
  TimePs up_arrival = TimePs::zero();
  link.set_b_tlp_handler([&](const Tlp&) {
    down_arrival = sim.now();
    sim.call_in(TimePs::from_ns(p.ack_processing_ns), [&] {
      Tlp up;
      up.type = TlpType::kMemWrite;
      up.bytes = 64;
      link.send_upstream(up);
    });
  });
  link.set_a_tlp_handler([&](const Tlp&) { up_arrival = sim.now(); });
  link.send_downstream(pio_post(1));
  sim.run();
  // 138.67 ns TLP latency; the Ack leaves at +1 ns and holds the
  // transmitter 4 ns; the MWr follows; the run ends with the MWr's Ack.
  EXPECT_EQ(down_arrival.ps(), 138670);
  EXPECT_EQ(up_arrival.ps(), 282340);
  EXPECT_EQ(sim.now().ps(), 418650);
}

TEST(Link, AnalyzedAckIsTracedAtItsDeparture) {
  sim::Simulator sim;
  Analyzer tap;
  LinkParams p;
  Link link(sim, p, &tap);
  link.set_b_tlp_handler([](const Tlp&) {});
  link.send_downstream(pio_post(1));
  sim.run();
  const auto acks = tap.trace().filter([](const TraceRecord& r) {
    return r.is_dllp && r.dllp_type == DllpType::kAck;
  });
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].dir, Direction::kUpstream);
  // Upstream packets are traced as they leave the NIC: arrival + 1 ns.
  EXPECT_EQ(acks[0].t.ps(), 139670);
  // run() ends when the Ack reaches the Root Complex.
  EXPECT_EQ(sim.now().ps(), 274980);
}

TEST(Link, SerializationLimitsBackToBackThroughput) {
  sim::Simulator sim;
  LinkParams p;
  Link link(sim, p);
  std::vector<double> arrivals;
  link.set_b_tlp_handler([&](const Tlp&) {
    arrivals.push_back(sim.now().to_ns());
  });
  for (int i = 0; i < 3; ++i) link.send_downstream(pio_post(i));
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const double gap = p.serialize(64).to_ns();
  EXPECT_NEAR(arrivals[1] - arrivals[0], gap, 1e-6);
  EXPECT_NEAR(arrivals[2] - arrivals[1], gap, 1e-6);
}

TEST(Link, PostedOrderingPreserved) {
  // A small TLP after a big one must not overtake it.
  sim::Simulator sim;
  LinkParams p;
  p.per_byte_ns = 1.0;  // exaggerate size-dependent latency
  Link link(sim, p);
  std::vector<std::uint32_t> sizes;
  link.set_b_tlp_handler([&](const Tlp& t) { sizes.push_back(t.bytes); });
  Tlp big = pio_post(1);
  big.bytes = 256;
  Tlp small = pio_post(2);
  small.bytes = 8;
  link.send_downstream(big);
  link.send_downstream(small);
  sim.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 256u);
  EXPECT_EQ(sizes[1], 8u);
}

TEST(Link, UpstreamTapRecordsAtDeparture) {
  sim::Simulator sim;
  Analyzer tap;
  LinkParams p;
  Link link(sim, p, &tap);
  link.set_a_tlp_handler([](const Tlp&) {});
  sim.call_at(100_ns, [&] {
    Tlp t;
    t.type = TlpType::kMemWrite;
    t.bytes = 64;
    link.send_upstream(t);
  });
  sim.run();
  const auto ups = tap.trace().upstream_writes();
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_NEAR(ups[0].t.to_ns(), 100.0, 1e-9);  // departure, not arrival
}

TEST(Link, DownstreamTapRecordsAtArrival) {
  sim::Simulator sim;
  Analyzer tap;
  LinkParams p;
  Link link(sim, p, &tap);
  link.set_b_tlp_handler([](const Tlp&) {});
  link.send_downstream(pio_post(7));
  sim.run();
  const auto downs = tap.trace().downstream_writes();
  ASSERT_EQ(downs.size(), 1u);
  EXPECT_NEAR(downs[0].t.to_ns(), p.tlp_latency(64).to_ns(), 1e-6);
  EXPECT_EQ(downs[0].msg_id, 7u);
}

TEST(Link, MeasuredRoundTripMatchesMethodology) {
  // Reproduce §4.3's PCIe measurement end to end: NIC-initiated MWr
  // (upstream) followed by the RC's Ack DLLP, both timestamped at the tap;
  // half the span must equal LinkParams::measured_pcie_ns().
  sim::Simulator sim;
  Analyzer tap;
  LinkParams p;
  Link link(sim, p, &tap);
  link.set_a_tlp_handler([](const Tlp&) {});
  Tlp cqe;
  cqe.type = TlpType::kMemWrite;
  cqe.bytes = 64;
  cqe.content = CqeWrite{0, 1, 1};
  link.send_upstream(cqe);
  sim.run();

  const auto mwrs = tap.trace().filter([](const TraceRecord& r) {
    return !r.is_dllp && r.dir == Direction::kUpstream;
  });
  const auto acks = tap.trace().filter([](const TraceRecord& r) {
    return r.is_dllp && r.dir == Direction::kDownstream &&
           r.dllp_type == DllpType::kAck;
  });
  ASSERT_EQ(mwrs.size(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  const double round_trip = (acks[0].t - mwrs[0].t).to_ns();
  EXPECT_NEAR(round_trip / 2.0, p.measured_pcie_ns(), 1e-6);
}

}  // namespace
}  // namespace bb::pcie
