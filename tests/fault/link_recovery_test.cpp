// Data-link recovery at the pcie::Link level: Nak -> go-back-N replay,
// replay-timer expiry, duplicate discard after a lost Ack, poisoned
// forwarding after an exhausted replay budget, and UpdateFC re-emission.

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "pcie/link.hpp"
#include "scenario/testbed.hpp"

namespace bb::pcie {
namespace {

Tlp write_tlp(std::uint64_t msg_id) {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = 64;
  DescriptorWrite dw;
  dw.md.msg_id = msg_id;
  t.content = dw;
  return t;
}

std::uint64_t msg_of(const Tlp& t) {
  return std::get<DescriptorWrite>(t.content).md.msg_id;
}

struct Rig {
  sim::Simulator sim;
  fault::FaultInjector injector;
  Link link;
  std::vector<Tlp> delivered;

  explicit Rig(fault::FaultConfig cfg, LinkParams p = {})
      : injector(cfg, /*seed=*/1), link(sim, p, nullptr, &injector) {
    link.set_b_tlp_handler([this](const Tlp& t) { delivered.push_back(t); });
    link.set_a_tlp_handler([this](const Tlp& t) { delivered.push_back(t); });
  }
  const fault::FaultStats& stats() const { return injector.stats(); }
};

TEST(LinkRecovery, NakTriggersOrderedGoBackNReplay) {
  fault::FaultConfig cfg;
  cfg.scheduled.push_back(
      {fault::OneShot::Kind::kCorruptTlp, fault::LinkDir::kDownstream, 2});
  Rig rig(cfg);

  rig.link.send_downstream(write_tlp(1));
  rig.link.send_downstream(write_tlp(2));
  rig.link.send_downstream(write_tlp(3));
  rig.sim.run();

  // Every TLP delivered exactly once, in posted order, despite the replay.
  ASSERT_EQ(rig.delivered.size(), 3u);
  EXPECT_EQ(msg_of(rig.delivered[0]), 1u);
  EXPECT_EQ(msg_of(rig.delivered[1]), 2u);
  EXPECT_EQ(msg_of(rig.delivered[2]), 3u);
  EXPECT_EQ(rig.stats().tlps_corrupted, 1u);
  EXPECT_EQ(rig.stats().naks_sent, 1u);
  EXPECT_GE(rig.stats().replays, 1u);
  // Recovery is complete: nothing left unacknowledged.
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
  EXPECT_EQ(rig.link.tlps_delivered(), rig.link.tlps_accepted());
}

TEST(LinkRecovery, DroppedTlpRecoveredByReplayTimer) {
  fault::FaultConfig cfg;
  cfg.replay_timeout_ns = 3000.0;
  cfg.scheduled.push_back(
      {fault::OneShot::Kind::kDropTlp, fault::LinkDir::kDownstream, 1});
  Rig rig(cfg);

  rig.link.send_downstream(write_tlp(7));
  rig.sim.run();

  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(msg_of(rig.delivered[0]), 7u);
  EXPECT_FALSE(rig.delivered[0].poisoned);
  EXPECT_EQ(rig.stats().tlps_dropped, 1u);
  EXPECT_GE(rig.stats().replay_timeouts, 1u);
  // The retransmission could not depart before the timer expired.
  EXPECT_GT(rig.sim.now().to_ns(), cfg.replay_timeout_ns);
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
}

TEST(LinkRecovery, LostAckRecoveredAsDiscardedDuplicate) {
  fault::FaultConfig cfg;
  cfg.scheduled.push_back(
      // The Ack for a downstream TLP travels upstream; drop the first one.
      {fault::OneShot::Kind::kDropAck, fault::LinkDir::kUpstream, 1});
  Rig rig(cfg);

  rig.link.send_downstream(write_tlp(9));
  rig.sim.run();

  // Payload delivered exactly once; the timer-driven retransmission was
  // recognized as a duplicate and re-acknowledged.
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.stats().acks_dropped, 1u);
  EXPECT_GE(rig.stats().duplicates_dropped, 1u);
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
}

TEST(LinkRecovery, ExhaustedReplayBudgetForwardsPoisoned) {
  fault::FaultConfig cfg;
  cfg.max_replays = 2;
  cfg.scheduled.push_back(
      {fault::OneShot::Kind::kKillTlp, fault::LinkDir::kDownstream, 1});
  Rig rig(cfg);

  rig.link.send_downstream(write_tlp(13));
  rig.sim.run();

  // The TLP can never pass cleanly; after max_replays retransmissions the
  // sender error-forwards it and the receiver still gets it (EP bit set).
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_TRUE(rig.delivered[0].poisoned);
  EXPECT_EQ(rig.stats().poisoned_tlps, 1u);
  EXPECT_EQ(rig.stats().replays, static_cast<std::uint64_t>(cfg.max_replays) + 1);
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
  EXPECT_EQ(rig.link.tlps_delivered(), rig.link.tlps_accepted());
}

TEST(LinkRecovery, DroppedUpdateFcIsReemittedAfterTimeout) {
  fault::FaultConfig cfg;
  cfg.fc_reemit_timeout_ns = 2000.0;
  cfg.scheduled.push_back(
      {fault::OneShot::Kind::kDropUpdateFC, fault::LinkDir::kDownstream, 1});
  Rig rig(cfg);
  // The A side returns the credits of an upstream write on arrival; that
  // UpdateFC travels downstream and refills the B side's credits.
  rig.link.set_a_tlp_handler(
      [&](const Tlp& t) { rig.link.release_credits(t); });
  const auto b_headers = [&] {
    return rig.link.credits(Direction::kUpstream)
        .available(CreditClass::kPosted)
        .header;
  };
  const std::uint32_t full = b_headers();
  std::uint32_t at_timeout = 0;
  rig.sim.call_at(TimePs::from_ns(cfg.fc_reemit_timeout_ns),
                  [&] { at_timeout = b_headers(); });
  rig.link.post(Direction::kUpstream, write_tlp(1));
  rig.sim.run();

  // Not refilled by the credit timeout; refilled after it.
  EXPECT_EQ(at_timeout, full - 1);
  EXPECT_EQ(b_headers(), full);
  EXPECT_EQ(rig.stats().updatefc_dropped, 1u);
  EXPECT_EQ(rig.stats().fc_reemissions, 1u);
}

TEST(LinkRecovery, BerStormStillDeliversEverythingInOrder) {
  fault::FaultConfig cfg;
  cfg.tlp_corrupt_prob = 0.10;
  cfg.tlp_drop_prob = 0.05;
  cfg.ack_drop_prob = 0.05;
  Rig rig(cfg);

  constexpr int kN = 200;
  for (int i = 1; i <= kN; ++i) rig.link.send_downstream(write_tlp(i));
  rig.sim.run();

  ASSERT_EQ(rig.delivered.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(msg_of(rig.delivered[i]), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_GT(rig.stats().injected(), 0u);
  EXPECT_GT(rig.stats().replays, 0u);
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
  EXPECT_EQ(rig.link.tlps_delivered(), rig.link.tlps_accepted());
}

TEST(LinkRecovery, DisabledInjectorLeavesLinkUntouched) {
  fault::FaultConfig cfg;  // all zero
  Rig rig(cfg);
  EXPECT_FALSE(rig.injector.enabled());
  rig.link.send_downstream(write_tlp(1));
  rig.sim.run();
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.link.replay_buffer_depth(), 0u);
  EXPECT_EQ(rig.stats().injected(), 0u);
}

TEST(LinkRecovery, InjectorThatInjectsNothingEndsWithFaultFreeRun) {
  // An injector arms REPLAY_TIMER for every TLP in flight, and every Ack
  // withdraws it. When nothing is lost the run ends when the fault-free
  // one does. (Event counts differ: with an injector DLLPs stay events.)
  const auto end_of_puts = [](const scenario::SystemConfig& cfg) {
    scenario::Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](scenario::Testbed& t,
                      llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < 40; ++i) {
        EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
      }
      while (e.outstanding() > 0) co_await t.node(0).worker.progress();
    }(tb, ep));
    tb.sim().run();
    EXPECT_EQ(tb.node(0).injector.stats().replay_timeouts, 0u);
    return tb.sim().now().ps();
  };
  fault::FaultConfig cfg;
  cfg.scheduled.push_back(
      {fault::OneShot::Kind::kDropTlp, fault::LinkDir::kDownstream, 1000000});
  const auto base = scenario::presets::deterministic();
  const auto fault_free = end_of_puts(base);
  EXPECT_EQ(end_of_puts(base.with(cfg)), fault_free);
  EXPECT_EQ(fault_free, 9482000);
}

}  // namespace
}  // namespace bb::pcie
