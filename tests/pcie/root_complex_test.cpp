#include "pcie/root_complex.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bb::pcie {
namespace {

using namespace bb::literals;

struct RcFixture {
  sim::Simulator sim;
  Link link{sim, LinkParams{}};
  RcParams params{};
  RootComplex rc{sim, link, params};
};

Tlp doorbell() {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = 8;
  t.content = DoorbellWrite{0, 1};
  return t;
}

TEST(RcParams, RcToMemCalibration) {
  RcParams p;
  // Table 1: RC-to-MEM(8B) = 240.96 ns.
  EXPECT_NEAR(p.rc_to_mem(8).to_ns(), 240.96, 1e-6);
  EXPECT_GT(p.rc_to_mem(64).to_ns(), p.rc_to_mem(8).to_ns());
}

TEST(RootComplex, ForwardsMmioDownstream) {
  RcFixture f;
  int delivered = 0;
  f.link.set_b_tlp_handler([&](const Tlp& t) {
    EXPECT_EQ(t.bytes, 8u);
    ++delivered;
  });
  f.rc.post_mmio(doorbell());
  f.sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(f.rc.mmio_issued(), 1u);
}

TEST(RootComplex, CommitsUpstreamWriteAfterRcToMem) {
  RcFixture f;
  f.link.set_b_tlp_handler([](const Tlp&) {});
  double visible = -1;
  f.rc.set_memory_sink([&](const Tlp&, TimePs at) { visible = at.to_ns(); });
  Tlp up;
  up.type = TlpType::kMemWrite;
  up.bytes = 8;
  up.content = PayloadWrite{1, 0, 8, 0, WireOp::kRdmaWrite};
  f.link.post(Direction::kUpstream, up);
  f.sim.run();
  const double arrival = f.link.params().tlp_latency(8).to_ns();
  EXPECT_NEAR(visible, arrival + 240.96, 1e-6);
  EXPECT_EQ(f.rc.mem_writes_committed(), 1u);
}

TEST(RootComplex, ServesDmaReadWithCplD) {
  RcFixture f;
  f.rc.set_read_provider([](const ReadRequest& req) {
    ReadCompletion rc;
    rc.what = req.what;
    rc.bytes = 64;
    rc.md.msg_id = 77;
    return rc;
  });
  std::vector<Tlp> at_b;
  f.link.set_b_tlp_handler([&](const Tlp& t) { at_b.push_back(t); });

  Tlp rd;
  rd.type = TlpType::kMemRead;
  rd.tag = 9;
  ReadRequest req;
  req.what = ReadRequest::What::kDescriptor;
  req.bytes = 64;
  rd.content = req;
  f.link.post(Direction::kUpstream, rd);
  f.sim.run();

  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].type, TlpType::kCompletionData);
  EXPECT_EQ(at_b[0].tag, 9u);
  const auto* rc = std::get_if<ReadCompletion>(&at_b[0].content);
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(rc->md.msg_id, 77u);
}

TEST(RootComplex, ReturnsCreditsForProcessedUpstreamTlps) {
  RcFixture f;
  f.rc.set_memory_sink([](const Tlp&, TimePs) {});
  const CreditState& nic = f.link.credits(Direction::kUpstream);
  const CreditBudget full = nic.available(CreditClass::kPosted);
  Tlp up;
  up.type = TlpType::kMemWrite;
  up.bytes = 64;
  up.content = CqeWrite{0, 1, 1};
  f.link.post(Direction::kUpstream, up);
  f.sim.run();
  EXPECT_EQ(nic.outstanding_headers(CreditClass::kPosted), 0);
  EXPECT_EQ(nic.available(CreditClass::kPosted).header, full.header);
  EXPECT_EQ(nic.available(CreditClass::kPosted).data, full.data);
}

TEST(RootComplex, StallsWhenCreditsExhaustedAndResumesOnUpdateFC) {
  sim::Simulator sim;
  // Room for exactly one 64 B posted write.
  Link link(sim, LinkParams{}, nullptr, nullptr,
            CreditState::with_budget({1, 4}, {1, 1}, {1, 4}));
  RootComplex rc(sim, link, RcParams{});
  std::vector<double> arrivals;
  link.set_b_tlp_handler([&](const Tlp&) {
    arrivals.push_back(sim.now().to_ns());
  });

  Tlp pio;
  pio.type = TlpType::kMemWrite;
  pio.bytes = 64;
  pio.content = DescriptorWrite{};
  rc.post_mmio(pio);
  rc.post_mmio(pio);  // must stall until credits return

  // The NIC side returns credits at t = 3000 ns.
  sim.call_at(3000_ns, [&] { link.release_credits(pio); });
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  const double l64 = link.params().tlp_latency(64).to_ns();
  EXPECT_NEAR(arrivals[0], l64, 1e-6);
  // Second write left only after the UpdateFC arrived (3000 + DLLP latency).
  const double fc_arrival = 3000.0 + link.params().dllp_latency().to_ns();
  EXPECT_NEAR(arrivals[1], fc_arrival + l64, 1.0);
  EXPECT_GE(rc.credit_stalls(), 1u);
}

TEST(RootComplex, PumpThatStallsOnAnInFlightCreditReturnWakesAtItsArrival) {
  // The NIC side returns each write's credits the moment the write lands.
  // The second write is posted while the first write's UpdateFC is still
  // on the wire: it stalls once and leaves inside that UpdateFC's arrival.
  // The third is posted after its predecessor's UpdateFC landed and does
  // not stall.
  sim::Simulator sim;
  Link link(sim, LinkParams{}, nullptr, nullptr,
            CreditState::with_budget({1, 4}, {1, 1}, {1, 4}));
  RootComplex rc(sim, link, RcParams{});
  std::vector<std::int64_t> arrivals;
  link.set_b_tlp_handler([&](const Tlp& t) {
    arrivals.push_back(sim.now().ps());
    link.release_credits(t);
  });
  Tlp pio;
  pio.type = TlpType::kMemWrite;
  pio.bytes = 64;
  pio.content = DescriptorWrite{};
  rc.post_mmio(pio);
  sim.call_at(200_ns, [&] { rc.post_mmio(pio); });
  sim.call_at(1000_ns, [&] { rc.post_mmio(pio); });
  sim.run();

  const TimePs l64 = link.params().tlp_latency(64);
  const TimePs fc = link.params().dllp_latency();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], l64.ps());
  EXPECT_EQ(arrivals[1], (l64 + fc + l64).ps());
  EXPECT_EQ(arrivals[2], (1000_ns + l64).ps());
  EXPECT_EQ(rc.credit_stalls(), 1u);
  // The last write's Ack queues behind its UpdateFC and lands last.
  EXPECT_EQ(sim.now().ps(), 1277980);
}

}  // namespace
}  // namespace bb::pcie
