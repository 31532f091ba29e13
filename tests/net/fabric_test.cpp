#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace bb::net {
namespace {

using namespace bb::literals;

NetPacket data8(std::uint64_t id, int src, std::uint64_t psn = 1) {
  pcie::WireMd md;
  md.msg_id = id;
  md.payload_bytes = 8;
  return NetPacket::data(md, src, 1 - src, psn);
}

TEST(NetParams, NetworkLatencyIsWirePlusSwitches) {
  NetParams p;
  // Table 1: Wire 274.81 + one Switch 108 = 382.81.
  EXPECT_NEAR(p.network_latency().to_ns(), 382.81, 1e-9);
  p.num_switches = 0;
  EXPECT_NEAR(p.network_latency().to_ns(), 274.81, 1e-9);
  p.num_switches = 3;
  EXPECT_NEAR(p.network_latency().to_ns(), 274.81 + 3 * 108.0, 1e-9);
}

TEST(Fabric, DeliversAfterNetworkLatency) {
  sim::Simulator sim;
  NetParams p;
  Fabric f(sim, p);
  double arrival = -1;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket& pkt) {
    EXPECT_EQ(pkt.msg_id, 5u);
    arrival = sim.now().to_ns();
  });
  f.send(data8(5, 0));
  sim.run();
  EXPECT_NEAR(arrival, p.network_latency().to_ns(), 1e-6);
}

TEST(Fabric, AckTravelsReverse) {
  sim::Simulator sim;
  Fabric f(sim, NetParams{});
  bool got_ack = false;
  f.attach(0, [&](const NetPacket& pkt) {
    EXPECT_EQ(pkt.kind, NetPacket::Kind::kAck);
    EXPECT_EQ(pkt.psn, 9u);
    got_ack = true;
  });
  f.attach(1, [](const NetPacket&) {});
  f.send(NetPacket::ctrl(NetPacket::Kind::kAck, /*qp=*/0, /*psn=*/9, 1, 0));
  sim.run();
  EXPECT_TRUE(got_ack);
}

TEST(Fabric, InOrderDeliveryPerSender) {
  sim::Simulator sim;
  Fabric f(sim, NetParams{});
  std::vector<std::uint64_t> ids;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket& pkt) { ids.push_back(pkt.msg_id); });
  for (std::uint64_t i = 0; i < 5; ++i) f.send(data8(i, 0));
  sim.run();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Fabric, SerializationSpacesBackToBackPackets) {
  sim::Simulator sim;
  NetParams p;
  Fabric f(sim, p);
  std::vector<double> arrivals;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { arrivals.push_back(sim.now().to_ns()); });
  f.send(data8(1, 0));
  f.send(data8(2, 0));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], p.serialize(8).to_ns(), 1e-6);
}

TEST(Fabric, DirectionsDoNotInterfere) {
  sim::Simulator sim;
  NetParams p;
  Fabric f(sim, p);
  double at0 = -1, at1 = -1;
  f.attach(0, [&](const NetPacket&) { at0 = sim.now().to_ns(); });
  f.attach(1, [&](const NetPacket&) { at1 = sim.now().to_ns(); });
  f.send(data8(1, 0));
  f.send(data8(2, 1));
  sim.run();
  // Both directions see pure latency; no shared serialization.
  EXPECT_NEAR(at0, p.network_latency().to_ns(), 1e-6);
  EXPECT_NEAR(at1, p.network_latency().to_ns(), 1e-6);
}

TEST(Fabric, IncastOffConcurrentSendersLandTogether) {
  sim::Simulator sim;
  NetParams p;  // model_incast defaults to false
  Fabric f(sim, p, 3);
  std::vector<double> arrivals;
  f.attach(0, [](const NetPacket&) {});
  f.attach(2, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { arrivals.push_back(sim.now().to_ns()); });
  pcie::WireMd md;
  md.payload_bytes = 4096;
  f.send(NetPacket::data(md, 0, 1, 1));
  f.send(NetPacket::data(md, 2, 1, 1));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // The receiver port is an infinite sink: both flows land at pure
  // latency, which is what keeps the two-node goldens bit-identical.
  EXPECT_NEAR(arrivals[0], p.network_latency().to_ns(), 1e-6);
  EXPECT_NEAR(arrivals[1], p.network_latency().to_ns(), 1e-6);
}

TEST(Fabric, IncastOnSerializesConvergingFlows) {
  sim::Simulator sim;
  NetParams p;
  p.model_incast = true;
  Fabric f(sim, p, 3);
  std::vector<double> arrivals;
  f.attach(0, [](const NetPacket&) {});
  f.attach(2, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { arrivals.push_back(sim.now().to_ns()); });
  pcie::WireMd md;
  md.payload_bytes = 4096;
  f.send(NetPacket::data(md, 0, 1, 1));
  f.send(NetPacket::data(md, 2, 1, 1));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Distinct senders, common destination: the second flow queues behind
  // the first for the receiver port's serialization time.
  EXPECT_NEAR(arrivals[0], p.network_latency().to_ns(), 1e-6);
  EXPECT_NEAR(arrivals[1] - arrivals[0], p.serialize(4096).to_ns(), 1e-6);
}

TEST(Fabric, IncastOnLeavesDisjointDestinationsAlone) {
  sim::Simulator sim;
  NetParams p;
  p.model_incast = true;
  Fabric f(sim, p, 4);
  double at1 = -1, at3 = -1;
  f.attach(0, [](const NetPacket&) {});
  f.attach(2, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { at1 = sim.now().to_ns(); });
  f.attach(3, [&](const NetPacket&) { at3 = sim.now().to_ns(); });
  pcie::WireMd md;
  md.payload_bytes = 4096;
  f.send(NetPacket::data(md, 0, 1, 1));
  f.send(NetPacket::data(md, 2, 3, 1));
  sim.run();
  // No shared receiver, no interference even with incast modeling on.
  EXPECT_NEAR(at1, p.network_latency().to_ns(), 1e-6);
  EXPECT_NEAR(at3, p.network_latency().to_ns(), 1e-6);
}

// --- wire faults (docs/TRANSPORT.md) ---------------------------------------

// --- Elided ACKs (docs/SIM_ENGINE.md "Elided events").

TEST(Fabric, ElidedAckDepartsAtItsPlaceAmongSameNodeSends) {
  // At 100 ns node 1 sends a data packet, an ACK and another data packet,
  // queued in that order. The ACK is no event, yet it takes the
  // transmitter between the two.
  sim::Simulator sim;
  NetParams p;
  Fabric f(sim, p);
  std::vector<std::pair<std::uint64_t, TimePs>> data;
  std::vector<std::pair<std::uint64_t, TimePs>> acks;
  f.attach(0, [&](const NetPacket& pkt) {
    data.emplace_back(pkt.msg_id, sim.now());
  });
  f.attach(1, [](const NetPacket&) {});
  f.attach_ack_sink(
      0,
      [](void* v, TimePs arrive, std::uint32_t, std::uint64_t psn) {
        static_cast<decltype(acks)*>(v)->emplace_back(psn, arrive);
      },
      &acks);
  const TimePs t = 100_ns;
  sim.call_at(t, [&] { f.send(data8(1, 1)); });
  ASSERT_TRUE(f.defer_ack(t, /*qp=*/3, /*psn=*/7, 1, 0));
  sim.call_at(t, [&] { f.send(data8(2, 1)); });
  sim.run();

  const TimePs lat = p.network_latency();
  const TimePs ack_depart = t + p.serialize(8);
  const TimePs second_depart = ack_depart + p.serialize(0);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0], std::pair(std::uint64_t{1}, t + lat));
  EXPECT_EQ(data[1], std::pair(std::uint64_t{2}, second_depart + lat));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], std::pair(std::uint64_t{7}, ack_depart + lat));
  // Two deliveries and their sends; the ACK counts sent and delivered.
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(f.stats().packets_sent, 3u);
  EXPECT_EQ(f.stats().packets_delivered, 3u);
  EXPECT_EQ(sim.now(), second_depart + lat);
}

TEST(Fabric, AckIsAnEventWithoutASinkOrWithAWireInjector) {
  sim::Simulator sim;
  Fabric bare(sim, NetParams{});
  EXPECT_FALSE(bare.defer_ack(10_ns, 0, 1, 1, 0));
  fault::WireInjector off;
  Fabric wired(sim, NetParams{}, 2, &off);
  wired.attach_ack_sink(
      0, [](void*, TimePs, std::uint32_t, std::uint64_t) {}, nullptr);
  EXPECT_FALSE(wired.defer_ack(10_ns, 0, 1, 1, 0));
}


TEST(FabricFaults, ScheduledDropNeverArrivesAndIsCounted) {
  sim::Simulator sim;
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDropData, 0, 2});
  fault::WireInjector inj(w, 7);
  Fabric f(sim, NetParams{}, 2, &inj);
  std::vector<std::uint64_t> psns;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket& pkt) { psns.push_back(pkt.psn); });
  for (std::uint64_t psn = 1; psn <= 3; ++psn) f.send(data8(psn, 0, psn));
  sim.run();
  EXPECT_EQ(psns, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(f.stats().packets_sent, 3u);
  EXPECT_EQ(f.stats().packets_dropped, 1u);
  EXPECT_EQ(f.stats().packets_delivered, 2u);
}

TEST(FabricFaults, CorruptOccupiesWireButIsDiscardedSilently) {
  sim::Simulator sim;
  fault::WireFaultConfig w;
  w.corrupt_prob = 1.0;
  fault::WireInjector inj(w, 7);
  Fabric f(sim, NetParams{}, 2, &inj);
  int delivered = 0;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { ++delivered; });
  f.send(data8(1, 0, 1));
  sim.run();
  // The packet travelled (an arrival event ran) but the receiver's ICRC
  // check discarded it without notifying anyone.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.stats().packets_corrupted, 1u);
  EXPECT_EQ(f.stats().packets_delivered, 0u);
}

TEST(FabricFaults, DuplicateDeliversTwiceConservationHolds) {
  sim::Simulator sim;
  fault::WireFaultConfig w;
  w.scheduled.push_back({fault::WireOneShot::Kind::kDuplicateData, 0, 1});
  fault::WireInjector inj(w, 7);
  Fabric f(sim, NetParams{}, 2, &inj);
  int delivered = 0;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket&) { ++delivered; });
  f.send(data8(1, 0, 1));
  sim.run();
  EXPECT_EQ(delivered, 2);
  const TransportStats& s = f.stats();
  EXPECT_EQ(s.packets_duplicated, 1u);
  EXPECT_EQ(s.packets_sent + s.packets_duplicated,
            s.packets_delivered + s.packets_dropped + s.packets_corrupted);
}

TEST(FabricFaults, ReorderLetsSuccessorOvertake) {
  sim::Simulator sim;
  fault::WireFaultConfig w;
  w.reorder_delay_ns = 500.0;
  w.scheduled.push_back({fault::WireOneShot::Kind::kReorderData, 0, 1});
  fault::WireInjector inj(w, 7);
  Fabric f(sim, NetParams{}, 2, &inj);
  std::vector<std::uint64_t> psns;
  f.attach(0, [](const NetPacket&) {});
  f.attach(1, [&](const NetPacket& pkt) { psns.push_back(pkt.psn); });
  f.send(data8(1, 0, 1));
  f.send(data8(2, 0, 2));
  sim.run();
  // PSN 1 was delayed past the in-order gate; PSN 2 overtakes it.
  EXPECT_EQ(psns, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(f.stats().packets_reordered, 1u);
}

TEST(FabricFaults, DisabledInjectorPointerIsFreeOfSideEffects) {
  // An attached-but-disabled injector must leave timing identical to no
  // injector at all (the loss-rate->0 bit-identity contract).
  auto arrivals_with = [](fault::WireInjector* inj) {
    sim::Simulator sim;
    Fabric f(sim, NetParams{}, 2, inj);
    std::vector<double> at;
    f.attach(0, [](const NetPacket&) {});
    f.attach(1, [&](const NetPacket&) { at.push_back(sim.now().to_ns()); });
    for (std::uint64_t psn = 1; psn <= 4; ++psn) f.send(data8(psn, 0, psn));
    sim.run();
    return at;
  };
  fault::WireInjector disabled(fault::WireFaultConfig{}, 7);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(arrivals_with(nullptr), arrivals_with(&disabled));
}

TEST(FabricFaults, LossPatternIsAPureFunctionOfSeed) {
  auto delivered_psns = [](std::uint64_t seed) {
    sim::Simulator sim;
    fault::WireFaultConfig w;
    w.drop_prob = 0.3;
    fault::WireInjector inj(w, seed);
    Fabric f(sim, NetParams{}, 2, &inj);
    std::vector<std::uint64_t> psns;
    f.attach(0, [](const NetPacket&) {});
    f.attach(1, [&](const NetPacket& pkt) { psns.push_back(pkt.psn); });
    for (std::uint64_t psn = 1; psn <= 64; ++psn) f.send(data8(psn, 0, psn));
    sim.run();
    return psns;
  };
  EXPECT_EQ(delivered_psns(11), delivered_psns(11));
  EXPECT_NE(delivered_psns(11), delivered_psns(12));
}

}  // namespace
}  // namespace bb::net
