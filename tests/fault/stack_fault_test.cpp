// Whole-stack fault integration on the two-node testbed: a BER storm
// under a real am_lat ping-pong, the fault-rate->0 bit-identity golden,
// seeded repeatability under faults, the terminal error path (a killed
// descriptor surfacing as an error CQE at the endpoint) and the poisoned
// payload read (retried, then failed once its retry budget is spent).

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "pcie/trace.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

// FNV-1a over the analyzer trace (same mix as the determinism goldens).
std::uint64_t trace_checksum(const pcie::Trace& tr) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : tr.records()) {
    mix(static_cast<std::uint64_t>(r.t.ps()));
    mix(static_cast<std::uint64_t>(r.dir));
    mix(static_cast<std::uint64_t>(r.is_dllp));
    mix(static_cast<std::uint64_t>(r.tlp_type));
    mix(static_cast<std::uint64_t>(r.dllp_type));
    mix(r.bytes);
    mix(r.tag);
    mix(r.msg_id);
    for (char c : r.kind) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  return h;
}

auto am_lat_fingerprint(const scenario::SystemConfig& cfg) {
  scenario::Testbed tb(cfg);
  bench::AmLatBenchmark b(
      tb, {.iterations = 100, .warmup = 10, .capture_trace = true});
  (void)b.run();
  return std::tuple{tb.sim().events_processed(), tb.sim().now().ps(),
                    trace_checksum(tb.analyzer().trace())};
}

TEST(StackFault, AmLatUnderBerCompletesWithConservation) {
  scenario::Testbed tb(
      scenario::presets::thunderx2_cx4().with(scenario::overlays::faults(0.005)));
  bench::AmLatBenchmark b(
      tb, {.iterations = 100, .warmup = 10, .capture_trace = false});
  const bench::LatencyResult res = b.run();
  EXPECT_EQ(res.iterations, 100u);
  EXPECT_GT(res.adjusted_mean_ns, 0.0);

  const fault::FaultStats fs = tb.fault_stats();
  // The storm actually happened, and every injection was recovered.
  EXPECT_GT(fs.injected(), 0u);
  EXPECT_GT(fs.replays, 0u);
  EXPECT_EQ(fs.poisoned_tlps, 0u);  // BER 0.5% never exhausts 4 replays
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(tb.node(n).link.replay_buffer_depth(), 0u) << "node " << n;
    // Exactly-once, in-order delivery: nothing lost, nothing duplicated.
    EXPECT_EQ(tb.node(n).link.tlps_delivered(), tb.node(n).link.tlps_accepted())
        << "node " << n;
  }
  // The merged stats reach the profiler as counters.
  tb.publish_fault_counters();
  EXPECT_EQ(tb.node(0).profiler.counter("fault.replays"), fs.replays);
}

TEST(StackFault, FaultRateZeroIsBitIdenticalToBaseline) {
  const auto baseline = am_lat_fingerprint(scenario::presets::thunderx2_cx4());
  const auto zero_rate = am_lat_fingerprint(
      scenario::presets::thunderx2_cx4().with(scenario::overlays::faults(0.0)));
  EXPECT_EQ(baseline, zero_rate);
}

TEST(StackFault, SeededFaultRunsAreRepeatable) {
  const scenario::SystemConfig cfg =
      scenario::presets::thunderx2_cx4().with(scenario::overlays::faults(0.005));
  EXPECT_EQ(am_lat_fingerprint(cfg), am_lat_fingerprint(cfg));
}

TEST(StackFault, KilledDescriptorSurfacesAsErrorCqe) {
  // Kill node 0's first downstream TLP (the PIO descriptor of the post):
  // the sender exhausts its replay budget, forwards the TLP poisoned, and
  // the NIC retires the op with a completion-with-error instead of
  // injecting it -- the op fails fast rather than hanging.
  fault::FaultConfig f;
  f.max_replays = 1;
  f.scheduled.push_back(
      {fault::OneShot::Kind::kKillTlp, fault::LinkDir::kDownstream, 1});
  scenario::Testbed tb(scenario::presets::thunderx2_cx4().with(f));
  llp::Endpoint& ep = tb.add_endpoint(0);

  auto driver = [](scenario::Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
    (void)co_await e.am_short(8);
    while (e.tx_errors() == 0 && t.sim().now().to_ns() < 1e6) {
      (void)co_await t.node(0).worker.progress();
    }
  };
  tb.sim().spawn(driver(tb, ep), "error-cqe-driver");
  tb.sim().run();

  EXPECT_EQ(ep.tx_errors(), 1u);
  EXPECT_EQ(ep.outstanding(), 0u);
  EXPECT_EQ(tb.node(0).worker.error_completions(), 1u);

  const fault::FaultStats fs = tb.fault_stats();
  EXPECT_EQ(fs.poisoned_tlps, 1u);
  EXPECT_EQ(fs.error_cqes, 1u);
  // The poisoned TLP was consumed by the NIC, never written to host memory.
  EXPECT_EQ(fs.poisoned_delivered, 0u);
  EXPECT_EQ(tb.node(0).link.replay_buffer_depth(), 0u);
}

// One 512 B non-inline am_short from node 0 whose payload-read CplDs
// (node 0's downstream TLPs 2, 3, ... -- TLP 1 is the PIO descriptor) are
// killed on the first `killed` attempts of the read. Returns the TX CQ
// entries node 0's NIC wrote, polled straight from host memory.
struct PoisonedPayloadRun {
  std::vector<nic::Cqe> cqes;
  fault::FaultStats stats;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t msg_id = 0;
};

PoisonedPayloadRun run_poisoned_payload_read(int killed) {
  fault::FaultConfig f;
  f.max_replays = 1;
  for (int i = 0; i < killed; ++i) {
    f.scheduled.push_back({fault::OneShot::Kind::kKillTlp,
                           fault::LinkDir::kDownstream,
                           static_cast<std::uint64_t>(2 + i)});
  }
  scenario::Testbed tb(scenario::presets::thunderx2_cx4().with(f));
  llp::Endpoint& ep = tb.add_endpoint(0);
  tb.node(1).nic.post_receives(1);
  PoisonedPayloadRun out;
  tb.sim().spawn([](llp::Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.am_short(512), llp::Status::kOk);
  }(ep));
  tb.sim().run();
  // The post took node 0's first message id; the next one is unused.
  out.msg_id = tb.node(0).host.alloc_msg_id() - 1;
  nic::CqRing& cq = tb.node(0).host.tx_cq(ep.qp());
  while (auto e = cq.poll(tb.sim().now())) out.cqes.push_back(*e);
  out.stats = tb.fault_stats();
  out.delivered_bytes = tb.node(1).host.payload_bytes_delivered();
  return out;
}

TEST(StackFault, PoisonedPayloadReadIsRetriedAndDelivered) {
  // A poisoned payload CplD is not fatal: payload reads are idempotent,
  // so the NIC re-reads, and the retried read still serves the same
  // descriptor.
  const PoisonedPayloadRun r = run_poisoned_payload_read(1);
  EXPECT_EQ(r.stats.poisoned_tlps, 1u);
  EXPECT_EQ(r.stats.read_retries, 1u);
  EXPECT_EQ(r.stats.error_cqes, 0u);
  EXPECT_EQ(r.delivered_bytes, 512u);
  ASSERT_EQ(r.cqes.size(), 1u);
  EXPECT_EQ(r.cqes[0].status, common::Status::kOk);
  EXPECT_EQ(r.cqes[0].msg_id, r.msg_id);
}

TEST(StackFault, PoisonedPayloadReadFailsAfterRetryBudget) {
  // Every attempt poisoned: after kMaxReadRetries re-reads the message is
  // retired with one error CQE and never reaches the wire.
  const PoisonedPayloadRun r = run_poisoned_payload_read(3);
  EXPECT_EQ(r.stats.poisoned_tlps, 3u);
  EXPECT_EQ(r.stats.read_retries, 2u);
  EXPECT_EQ(r.stats.error_cqes, 1u);
  EXPECT_EQ(r.delivered_bytes, 0u);
  ASSERT_EQ(r.cqes.size(), 1u);
  EXPECT_EQ(r.cqes[0].status, common::Status::kIoError);
  EXPECT_EQ(r.cqes[0].msg_id, r.msg_id);
  EXPECT_EQ(r.cqes[0].completes, 1u);
}

TEST(StackFault, TestbedDestroyedMidRecoveryWithdrawsArmedTimers) {
  // Tear down while the NIC's transport retry timer (the first data
  // packet is lost) and a link's REPLAY_TIMER (the second descriptor
  // write is lost) are both armed: their owners go before the Simulator
  // and must withdraw them cleanly (checked under the sanitizers).
  fault::FaultConfig f;
  f.scheduled.push_back(
      {fault::OneShot::Kind::kDropTlp, fault::LinkDir::kDownstream, 2});
  f.wire.scheduled.push_back({fault::WireOneShot::Kind::kDropData, 0, 1});
  scenario::Testbed tb(scenario::presets::deterministic().with(f));
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](llp::Endpoint& e) -> sim::Task<void> {
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
    EXPECT_EQ(co_await e.put_short(8), llp::Status::kOk);
  }(ep));
  tb.sim().run_until(TimePs::from_ns(1500.0));
  EXPECT_EQ(tb.node(0).nic.tx_unacked(), 1u);
  EXPECT_GT(tb.node(0).link.replay_buffer_depth(), 0u);
  EXPECT_EQ(tb.net_stats().retry_timer_firings, 0u);
  EXPECT_EQ(tb.node(0).injector.stats().replay_timeouts, 0u);
}

}  // namespace
}  // namespace bb
