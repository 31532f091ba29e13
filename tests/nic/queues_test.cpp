#include "nic/queues.hpp"

#include <gtest/gtest.h>

namespace bb::nic {
namespace {

using namespace bb::literals;

TEST(CqRing, PollRespectsVisibility) {
  CqRing cq;
  cq.push(Cqe{1, 1, 0, 0, 100_ns});
  EXPECT_FALSE(cq.poll(99_ns).has_value());  // not visible yet
  auto e = cq.poll(100_ns);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->msg_id, 1u);
  EXPECT_FALSE(cq.poll(1_us).has_value());  // dequeued
}

TEST(CqRing, VisibleCountStopsAtFirstInvisible) {
  CqRing cq;
  cq.push(Cqe{1, 1, 0, 0, 10_ns});
  cq.push(Cqe{2, 1, 0, 0, 20_ns});
  cq.push(Cqe{3, 1, 0, 0, 30_ns});
  EXPECT_EQ(cq.visible_count(5_ns), 0u);
  EXPECT_EQ(cq.visible_count(20_ns), 2u);
  EXPECT_EQ(cq.visible_count(35_ns), 3u);
}

TEST(CqRing, FifoOrder) {
  CqRing cq;
  cq.push(Cqe{1, 1, 0, 0, 10_ns});
  cq.push(Cqe{2, 1, 0, 0, 10_ns});
  EXPECT_EQ(cq.poll(10_ns)->msg_id, 1u);
  EXPECT_EQ(cq.poll(10_ns)->msg_id, 2u);
  EXPECT_EQ(cq.total_pushed(), 2u);
}

TEST(HostMemory, CqeWriteLandsInPerQpTxCq) {
  HostMemory host;
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = 64;
  tlp.content = pcie::CqeWrite{3, 42, 16};
  host.commit_write(tlp, 500_ns);
  EXPECT_EQ(host.tx_cqes_present(), 1u);
  EXPECT_EQ(host.tx_cq(3).depth(), 1u);
  EXPECT_EQ(host.tx_cq(0).depth(), 0u);
  const auto e = host.tx_cq(3).poll(500_ns);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->msg_id, 42u);
  EXPECT_EQ(e->completes, 16u);
}

TEST(HostMemory, SendPayloadCreatesRxCompletion) {
  HostMemory host;
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = 8;
  tlp.content = pcie::PayloadWrite{7, 0, 8, 0, pcie::WireOp::kSend};
  host.commit_write(tlp, 300_ns);
  EXPECT_EQ(host.rx_cq().depth(), 1u);
  EXPECT_EQ(host.payload_bytes_delivered(), 8u);
}

TEST(HostMemory, RdmaWritePayloadIsSilent) {
  // One-sided put: payload lands but no software-visible completion at
  // the target.
  HostMemory host;
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = 8;
  tlp.content = pcie::PayloadWrite{7, 0, 8, 0, pcie::WireOp::kRdmaWrite};
  host.commit_write(tlp, 300_ns);
  EXPECT_EQ(host.rx_cq().depth(), 0u);
  EXPECT_EQ(host.payload_bytes_delivered(), 8u);
}

TEST(HostMemory, DescriptorStagingServedFifo) {
  HostMemory host;
  pcie::WireMd a, b;
  a.msg_id = 1;
  a.qp = 2;
  b.msg_id = 2;
  b.qp = 2;
  host.stage_descriptor(a);
  host.stage_descriptor(b);
  EXPECT_EQ(host.staged_count(2), 2u);

  pcie::ReadRequest req;
  req.what = pcie::ReadRequest::What::kDescriptor;
  req.qp = 2;
  EXPECT_EQ(host.serve_read(req).md.msg_id, 1u);
  EXPECT_EQ(host.serve_read(req).md.msg_id, 2u);
  EXPECT_EQ(host.staged_count(2), 0u);
}

TEST(HostMemory, PayloadReadReturnsSize) {
  HostMemory host;
  pcie::ReadRequest req;
  req.what = pcie::ReadRequest::What::kPayload;
  req.bytes = 4096;
  EXPECT_EQ(host.serve_read(req).bytes, 4096u);
}

TEST(HostMemory, CountsTxCqesPresentAcrossRings) {
  HostMemory host;
  EXPECT_EQ(host.tx_cqes_present(), 0u);
  host.tx_cq(1).push(Cqe{1, 1, 0, 0, 10_ns});
  host.tx_cq(2).push(Cqe{2, 1, 0, 0, 10_ns});
  host.tx_cq(2).push(Cqe{3, 1, 0, 0, 20_ns});
  host.rx_cq().push(Cqe{4, 1, 0, 0, 10_ns});  // RX entries are not counted
  EXPECT_EQ(host.tx_cqes_present(), 3u);
  EXPECT_FALSE(host.tx_cq(1).poll(5_ns).has_value());
  EXPECT_EQ(host.tx_cqes_present(), 3u);
  (void)host.tx_cq(2).poll(30_ns);
  (void)host.tx_cq(1).poll(30_ns);
  EXPECT_EQ(host.tx_cqes_present(), 1u);
}

struct Poller final : sim::Parked {
  HostMemory* host = nullptr;
  int wakes = 0;
  sim::Tie tie = sim::Tie::kPassFirst;
  std::size_t rx_entries = 0;  // RX CQ entries present at the wake
  void wake(sim::Tie t) override {
    ++wakes;
    tie = t;
    rx_entries = host->rx_cq().depth();
    host->unpark(this);
  }
};

TEST(HostMemory, WriteNoticeWakesEveryParkedPoller) {
  HostMemory host;
  Poller a, b;
  a.host = b.host = &host;
  host.park(&a);
  host.park(&b);
  host.note_write_scheduled();
  EXPECT_EQ(a.wakes, 1);
  EXPECT_EQ(b.wakes, 1);
  // A pass that starts at the notice misses the write, which commits
  // RC-to-MEM later.
  EXPECT_EQ(a.tie, sim::Tie::kPassFirst);
  host.note_write_scheduled();  // nobody parked any more
  EXPECT_EQ(a.wakes, 1);
  EXPECT_EQ(b.wakes, 1);
}

TEST(HostMemory, CommitWakesEveryParkedPollerWithItsEntryInPlace) {
  HostMemory host;
  Poller a, b;
  a.host = b.host = &host;
  host.park(&a);
  host.park(&b);
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.content = pcie::PayloadWrite{.bytes = 8, .op = pcie::WireOp::kSend};
  host.commit_write(tlp, 100_ns);
  EXPECT_EQ(a.wakes, 1);
  EXPECT_EQ(b.wakes, 1);
  // A pass that starts at the commit sees it.
  EXPECT_EQ(a.tie, sim::Tie::kWakeFirst);
  EXPECT_EQ(a.rx_entries, 1u);
  EXPECT_EQ(b.rx_entries, 1u);

  // A commit with nobody parked wakes nobody; one parked poller is woken
  // by a write that carries no completion as well.
  tlp.content = pcie::CqeWrite{.qp = 3, .msg_id = 9, .completes = 1};
  host.commit_write(tlp, 120_ns);
  EXPECT_EQ(a.wakes, 1);
  host.park(&b);
  tlp.content = pcie::PayloadWrite{.bytes = 64, .op = pcie::WireOp::kRdmaWrite};
  host.commit_write(tlp, 140_ns);
  EXPECT_EQ(a.wakes, 1);
  EXPECT_EQ(b.wakes, 2);
  EXPECT_EQ(b.tie, sim::Tie::kWakeFirst);
}

}  // namespace
}  // namespace bb::nic
