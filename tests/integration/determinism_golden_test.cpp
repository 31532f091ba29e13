// Determinism golden test for the event engine.
//
// Runs the paper's two smallest end-to-end benchmarks (`put_bw`, `am_lat`)
// on the thunderx2_cx4 preset with the default seed and asserts the exact
// event count, final simulated time, and an FNV-1a checksum over every
// field of the analyzer trace. The golden values were captured from the
// `std::priority_queue`-based engine the ready-ring/run/heap dispatcher
// replaced; any reordering of same-timestamp events -- however subtle --
// shifts DLLP interleavings and changes the checksum. Update these
// constants only for a change that is *supposed* to alter simulated
// behavior, never for an engine refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "exec/sweep.hpp"
#include "pcie/trace.hpp"
#include "scenario/cluster.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

// FNV-1a over the analyzer trace: every field of every record in order.
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

TEST(DeterminismGolden, PutBwOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark b(
      tb, {.messages = 2000, .warmup = 200, .capture_trace = true});
  (void)b.run();
  EXPECT_EQ(tb.sim().events_processed(), 37281u);
  EXPECT_EQ(tb.sim().now().ps(), 623024806);
  EXPECT_EQ(tb.analyzer().trace().size(), 13200u);
  EXPECT_EQ(trace_checksum(tb.analyzer().trace()), 0x4b310291a8770261ull);
}

TEST(DeterminismGolden, AmLatOnThunderx2Cx4) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark b(
      tb, {.iterations = 500, .warmup = 50, .capture_trace = true});
  (void)b.run();
  EXPECT_EQ(tb.sim().events_processed(), 145947u);
  EXPECT_EQ(tb.sim().now().ps(), 1319178710);
  EXPECT_EQ(tb.analyzer().trace().size(), 4950u);
  EXPECT_EQ(trace_checksum(tb.analyzer().trace()), 0x99a7aa2d313a960eull);
}

// Collective determinism: an 8-rank allreduce schedule multiplexes four
// peer endpoints per node over one shared progress engine -- far more
// same-timestamp event pressure than the 2-node benches above. The
// analyzer taps node 0's link (Cluster default).
TEST(DeterminismGolden, AllreduceOnThunderx2Cx4) {
  scenario::Cluster cl(scenario::presets::thunderx2_cx4(), 8);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  bench::OsuCollConfig cfg;
  cfg.bytes = 256;
  cfg.iterations = 20;
  cfg.warmup = 5;
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, cfg);
  (void)b.run();
  EXPECT_EQ(cl.sim().events_processed(), 13708u);
  EXPECT_EQ(cl.sim().now().ps(), 25006013113);
  EXPECT_EQ(cl.analyzer().trace().size(), 1275u);
  EXPECT_EQ(trace_checksum(cl.analyzer().trace()), 0x1c3fe29c0a532d44ull);
}

// Multi-peer rendezvous: at 1024 B every recursive-doubling exchange goes
// RTS -> CTS -> data put -> FIN, so each rank drives rendezvous state
// toward several peers at once from one progress engine.
TEST(DeterminismGolden, RendezvousAllreduceOnThunderx2Cx4) {
  scenario::Cluster cl(scenario::presets::thunderx2_cx4(), 4);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  bench::OsuCollConfig cfg;
  cfg.bytes = 1024;
  cfg.iterations = 20;
  cfg.warmup = 5;
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, cfg);
  (void)b.run();
  EXPECT_EQ(cl.sim().events_processed(), 10758u);
  EXPECT_EQ(cl.sim().now().ps(), 25008547534);
  EXPECT_EQ(cl.analyzer().trace().size(), 1756u);
  EXPECT_EQ(trace_checksum(cl.analyzer().trace()), 0x8b7705c4692cb94eull);
}

// Lossy-transport determinism: the wire injector's fault pattern is a
// pure function of (scenario seed, packet order) -- seed-forked off the
// simulation's RNG tree, never the host -- so an 8-rank allreduce under
// nonzero packet loss produces bit-identical traces whether the sweep
// runs serially or sharded across 4 worker threads.
TEST(DeterminismGolden, LossyAllreduceIdenticalSerialVsParallel) {
  auto fingerprint = [](std::uint64_t seed) {
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4().with(
        scenario::overlays::wire_loss(1e-2));
    cfg.seed = seed;
    scenario::Cluster cl(cfg, 8);
    cl.analyzer().set_enabled(true);
    coll::World world(cl);
    bench::OsuCollConfig bc;
    bc.bytes = 256;
    bc.iterations = 10;
    bc.warmup = 2;
    bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, bc);
    (void)b.run();
    return std::tuple{cl.sim().events_processed(), cl.sim().now().ps(),
                      trace_checksum(cl.analyzer().trace()),
                      cl.net_stats().packets_dropped};
  };
  const auto sw = exec::sweep(std::vector<int>{0, 1, 2, 3}, 42);
  const auto job = [&](const int&, exec::Job& j) {
    return fingerprint(j.seed());
  };
  auto serial = exec::run_sweep(sw, job, {.jobs = 1});
  auto parallel = exec::run_sweep(sw, job, {.jobs = 4});
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  std::uint64_t total_dropped = 0;
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    EXPECT_EQ(serial.values[i], parallel.values[i]) << "grid point " << i;
    total_dropped += std::get<3>(serial.values[i]);
  }
  // The loss rate was live: this golden exercises the recovery machinery,
  // not an idle injector.
  EXPECT_GT(total_dropped, 0u);
}

// Multi-core injection: two extra cores on node 0, each driving its own
// worker and endpoint through the shared NIC (the fine-grained scenario
// of the paper's introduction). Pins the add_core/add_endpoint(WorkerCore&)
// path, whose QPs and peers come from the machine builder.
TEST(DeterminismGolden, MultiCoreInjection) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  auto& wc1 = tb.add_core(0);
  auto& wc2 = tb.add_core(0);
  auto& ep1 = tb.add_endpoint(wc1, 0);
  auto& ep2 = tb.add_endpoint(wc2, 0);
  auto loop = [](scenario::Testbed::WorkerCore& wc,
                 llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 2000; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await wc.worker.progress();
      }
    }
    while (co_await e.flush() != llp::Status::kOk) {
      co_await wc.worker.progress();
    }
    while (e.outstanding() > 0) co_await wc.worker.progress();
  };
  tb.sim().spawn(loop(wc1, ep1));
  tb.sim().spawn(loop(wc2, ep2));
  tb.sim().run();
  EXPECT_EQ(ep1.outstanding() + ep2.outstanding(), 0u);
  EXPECT_EQ(tb.node(0).nic.messages_injected(), 4002u);  // + two flushes
  EXPECT_EQ(tb.sim().events_processed(), 64286u);
  EXPECT_EQ(tb.sim().now().ps(), 475689431);
  EXPECT_EQ(tb.analyzer().trace().size(), 24012u);
  // One same-picosecond tie on node 0's downstream link (67,085.983 ns):
  // a core's PIO MWr is issued inside its posting event, which the
  // Root Complex's credit-return UpdateFC follows, so the MWr leaves
  // first and the UpdateFC 11 ns later. End time and size are unmoved.
  EXPECT_EQ(trace_checksum(tb.analyzer().trace()), 0xf2740338be9121bbull);
}

// Two runs with the same seed must agree event-for-event, independent of
// the golden constants above (guards nondeterminism that happens to
// change both runs identically within a process but not across hosts).
TEST(DeterminismGolden, BackToBackRunsAreIdentical) {
  auto run_once = [] {
    scenario::Testbed tb(scenario::presets::thunderx2_cx4());
    bench::PutBwBenchmark b(
        tb, {.messages = 500, .warmup = 50, .capture_trace = true});
    (void)b.run();
    return std::tuple{tb.sim().events_processed(), tb.sim().now().ps(),
                      trace_checksum(tb.analyzer().trace())};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bb
