// Parked waiters must not change what is simulated (docs/SIM_ENGINE.md
// "Parked waiters"). A blocking wait loop that parks on empty progress
// passes and replays them arithmetically has to reproduce, bit for bit,
// the loop that dispatched one event per pass. Every fingerprint below
// was captured from that spinning loop; only the event count may differ,
// and where a scenario must never park it may not differ either.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "benchlib/osu.hpp"
#include "benchlib/osu_coll.hpp"
#include "coll/communicator.hpp"
#include "pcie/trace.hpp"
#include "scenario/cluster.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

using namespace bb::literals;

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(TimePs t) { mix(static_cast<std::uint64_t>(t.ps())); }
  void mix(double v) { mix(TimePs::from_ns(v)); }
};

std::uint64_t trace_checksum(const pcie::Trace& tr) {
  Fnv f;
  for (const auto& r : tr.records()) {
    f.mix(r.t);
    f.mix(static_cast<std::uint64_t>(r.dir));
    f.mix(static_cast<std::uint64_t>(r.tlp_type));
    f.mix(static_cast<std::uint64_t>(r.dllp_type));
    f.mix(static_cast<std::uint64_t>(r.bytes));
    f.mix(r.msg_id);
  }
  return f.h;
}

// --- Lossy two-node MPI ping-pong: rendezvous, DMA-fetch and inline
// sizes over a wire dropping 1% of packets, every send waited on.

constexpr std::uint32_t kMixSizes[] = {8, 512, 16384};

sim::Task<void> ping(scenario::MpiStack& st, int iters, Fnv& fp,
                     std::span<const std::uint32_t> sizes = kMixSizes) {
  cpu::Core& core = st.node().core;
  for (int i = 0; i < iters; ++i) {
    const std::uint32_t n = sizes[i % sizes.size()];
    hlp::Request* rr = st.mpi().irecv(n).value();
    hlp::Request* sr = (co_await st.mpi().isend(n)).value();
    const common::Status s1 = co_await st.mpi().wait(sr);
    const common::Status s2 = co_await st.mpi().wait(rr);
    EXPECT_EQ(s1, common::Status::kOk);
    EXPECT_EQ(s2, common::Status::kOk);
    fp.mix(core.virtual_now());
  }
}

sim::Task<void> pong(scenario::MpiStack& st, int iters, Fnv& fp,
                     std::span<const std::uint32_t> sizes = kMixSizes) {
  cpu::Core& core = st.node().core;
  for (int i = 0; i < iters; ++i) {
    const std::uint32_t n = sizes[i % sizes.size()];
    hlp::Request* rr = st.mpi().irecv(n).value();
    const common::Status s1 = co_await st.mpi().wait(rr);
    hlp::Request* sr = (co_await st.mpi().isend(n)).value();
    const common::Status s2 = co_await st.mpi().wait(sr);
    EXPECT_EQ(s1, common::Status::kOk);
    EXPECT_EQ(s2, common::Status::kOk);
    fp.mix(core.virtual_now());
  }
}

TEST(ParkingGolden, LossyMpiPingPongMatchesSpinningLoop) {
  scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4().with(
      scenario::overlays::wire_loss(1e-2));
  cfg.seed = 7;
  scenario::Testbed tb(cfg);
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(1024);
  tb.node(1).nic.post_receives(1024);
  Fnv fa, fb;
  tb.sim().spawn(ping(a, 90, fa), "ping");
  tb.sim().spawn(pong(b, 90, fb), "pong");
  tb.sim().run();
  const auto fp = std::tuple{tb.sim().now().ps(), fa.h, fb.h,
                             tb.node(0).core.busy_time().ps(),
                             tb.node(1).core.busy_time().ps(),
                             tb.net_stats().retransmits};
  EXPECT_EQ(fp, std::tuple(496930063, 5346917571041693680ull,
                           13121745254305777362ull, 489265189, 488091940,
                           4ull));
  EXPECT_GT(tb.node(0).worker.parks(), 0u);
  EXPECT_GT(tb.node(1).worker.parks(), 0u);
  // The spinning loop took 35079 events, and a loop that parks only
  // while no write is in flight into its node 19590. The end time is the
  // last live event's: a withdrawn retry timer neither runs nor moves it.
  EXPECT_EQ(tb.sim().events_processed(), 5933u);
}

// --- A jitter-free 16 KiB rendezvous ping-pong: each payload takes about
// 6 us from MWr arrival to commit, and both ranks stay parked through it
// on passes of one fixed length.

TEST(ParkingGolden, DeterministicRendezvousParksThroughPayloadCommit) {
  scenario::Testbed tb(scenario::presets::deterministic());
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(256);
  tb.node(1).nic.post_receives(256);
  constexpr std::uint32_t kRndv[] = {16384};
  Fnv fa, fb;
  tb.sim().spawn(ping(a, 40, fa, kRndv), "ping");
  tb.sim().spawn(pong(b, 40, fb, kRndv), "pong");
  tb.sim().run();
  const auto fp = std::tuple{tb.sim().now().ps(), fa.h, fb.h,
                             tb.node(0).core.busy_time().ps(),
                             tb.node(1).core.busy_time().ps()};
  EXPECT_EQ(fp, std::tuple(380615850, 5920865701941647180ull,
                           6386066151350062388ull, 372986210, 371779550));
  EXPECT_GT(tb.node(0).worker.parks(), 0u);
  EXPECT_GT(tb.node(1).worker.parks(), 0u);
  // Spinning through every commit window took 21429 events.
  EXPECT_EQ(tb.sim().events_processed(), 4034u);
}

// --- A write committed exactly at the start of a pass is seen by that
// pass, whether the loop spins one event per pass or parks; a write whose
// notice comes after that pass was queued is not. One node's core, memory
// and worker, driven directly: jitter-free passes of ucp_progress_iter +
// llp_empty_progress back to back from t = 0.

struct CommitOnPassStart {
  sim::Simulator sim{3};
  cpu::Core core{sim, [] {
                   cpu::CpuCostModel m;
                   m.strip_jitter();
                   return m;
                 }()};
  nic::HostMemory host;
  prof::Profiler profiler{core};
  llp::Worker worker{core, host, profiler};
  TimePs seen_at;

  TimePs pass() const {
    return core.costs().ucp_progress_iter.mean() +
           core.costs().llp_empty_progress.mean();
  }

  sim::Task<void> wait(bool park) {
    const cpu::CostSpec* const costs[] = {&core.costs().ucp_progress_iter,
                                          &core.costs().llp_empty_progress};
    const auto spinning = [this] { return worker.rx_completions() == 0; };
    const llp::IdleLoop idle =
        llp::IdleLoop::of(costs, TimePs::max(), spinning);
    while (worker.rx_completions() == 0) {
      core.consume(core.costs().ucp_progress_iter);
      (void)co_await worker.progress(0, park ? &idle : nullptr);
    }
    seen_at = core.virtual_now();
  }

  // The RC's two steps for one inbound send: the notice at MWr arrival,
  // then the commit at `visible`.
  sim::Task<void> write(TimePs notice, TimePs visible) {
    co_await sim.delay(notice);
    host.note_write_scheduled();
    sim.call_at(visible, [this, visible] {
      pcie::Tlp tlp;
      tlp.type = pcie::TlpType::kMemWrite;
      tlp.content = pcie::PayloadWrite{.bytes = 8, .op = pcie::WireOp::kSend};
      host.commit_write(tlp, visible);
    });
  }

  TimePs run(bool park, TimePs notice, TimePs visible) {
    sim.spawn(wait(park), "waiter");
    sim.spawn(write(notice, visible), "rc");
    sim.run();
    EXPECT_EQ(worker.parks() > 0, park);
    return seen_at;
  }
};

TEST(ParkingGolden, CommitOnAPassStartIsSeenByThatPass) {
  for (const bool park : {false, true}) {
    CommitOnPassStart n;
    const TimePs v = n.pass() * 300;
    const TimePs seen = n.run(park, v - 6_us, v);
    EXPECT_EQ(seen, v + n.core.costs().ucp_progress_iter.mean() +
                        n.core.costs().llp_prog.mean())
        << "park=" << park;
  }
  // The notice comes after the pass at the commit time was queued: that
  // pass misses the write, and the next one sees it.
  for (const bool park : {false, true}) {
    CommitOnPassStart n;
    const TimePs v = n.pass() * 300;
    const TimePs seen = n.run(park, v - n.pass() / 2, v);
    EXPECT_EQ(seen, v + n.pass() + n.core.costs().ucp_progress_iter.mean() +
                        n.core.costs().llp_prog.mean())
        << "park=" << park;
  }
}

// --- An 8-rank allreduce on jitter-free costs: every pass has the same
// length, so exact timestamp ties between a rank's pass and the writes
// that wake it are common.

std::tuple<std::int64_t, std::uint64_t, std::uint64_t, std::uint64_t>
deterministic_allreduce(std::uint32_t bytes, std::uint64_t& parks) {
  scenario::Cluster cl(scenario::presets::deterministic(), 8);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  bench::OsuCollConfig cfg;
  cfg.bytes = bytes;
  cfg.iterations = 8;
  cfg.warmup = 2;
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, cfg);
  const bench::CollResult res = b.run();
  Fnv iters, busy;
  for (double v : res.iter_ns.values_ns()) iters.mix(v);
  for (int r = 0; r < cl.node_count(); ++r) {
    busy.mix(cl.node(r).core.busy_time());
    parks += cl.node(r).worker.parks();
  }
  return {cl.sim().now().ps(), trace_checksum(cl.analyzer().trace()),
          iters.h, busy.h};
}

TEST(ParkingGolden, DeterministicAllreduceMatchesSpinningLoop) {
  std::uint64_t parks = 0;
  // Recursive doubling (256 B) and ring (4 KiB).
  EXPECT_EQ(deterministic_allreduce(256, parks),
            std::tuple(10005949720, 4277734557028962921ull,
                       4304397080568652531ull, 3691565919422554355ull));
  EXPECT_EQ(deterministic_allreduce(4096, parks),
            std::tuple(10029374240, 1864322873631888714ull,
                       7744463496066112627ull, 13740794593296044419ull));
  EXPECT_GT(parks, 0u);
}

// --- The coll watchdog: a wait whose message never comes times out at
// the first pass that starts after its deadline.

sim::Task<void> coll_wait(coll::Communicator& c, bool use_waitall,
                          common::Status& st, TimePs& at) {
  std::vector<hlp::Request*> reqs{c.irecv(1, 8)};
  st = use_waitall ? co_await c.waitall(reqs) : co_await c.wait(reqs[0]);
  at = c.core().virtual_now();
}

sim::Task<void> coll_send_after(coll::Communicator& c, TimePs delay) {
  co_await c.node().core.simulator().delay(delay);
  (void)co_await c.isend(0, 8);
  co_await c.core().flush();
}

TEST(ParkingGolden, WatchdogFiresWhileParkedAtSpinningLoopTime) {
  scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
  cfg.coll.wait_timeout_us = 20.0;
  scenario::Cluster cl(cfg, 2);
  coll::World world(cl);
  common::Status st = common::Status::kOk;
  TimePs returned_at;
  cl.sim().spawn(coll_wait(world.comm(0), false, st, returned_at), "waiter");
  cl.sim().run();
  EXPECT_EQ(st, common::Status::kTimedOut);
  EXPECT_EQ(std::tuple(returned_at.ps(), cl.node(0).core.busy_time().ps()),
            std::tuple(20263692, 20263692));
  // The resumed pass that timed out is the last event: nothing stale.
  EXPECT_EQ(cl.sim().now(), returned_at);
  EXPECT_EQ(cl.sim().parked(), 0u);
  EXPECT_GT(cl.node(0).worker.replayed_passes(), 0u);
}

// A wait that completes long before its deadline: the cancelled deadline
// must not move now() when the queue drains.
TEST(ParkingGolden, CompletedWaitLeavesNoDeadlineEvent) {
  scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
  cfg.coll.wait_timeout_us = 20.0;
  scenario::Cluster cl(cfg, 2);
  coll::World world(cl);
  common::Status st = common::Status::kTimedOut;
  TimePs done_at;
  cl.sim().spawn(coll_wait(world.comm(0), true, st, done_at), "waiter");
  cl.sim().spawn(coll_send_after(world.comm(1), 3_us), "sender");
  cl.sim().run();
  EXPECT_EQ(st, common::Status::kOk);
  EXPECT_EQ(std::tuple(done_at.ps(), cl.sim().now().ps()),
            std::tuple(4452898, 4452898));
  EXPECT_GT(cl.node(0).worker.parks(), 0u);
}

// --- The OSU message-rate loop (inject_8B's shape): 64-send windows
// closed by MPI_Waitall, one signalled completion per 64 sends, so each
// window's last send pends on a busy post until the CQE for the window
// before frees the TxQ. The pass that posts it completes the window with
// an empty poll and nothing in flight -- parkable but for the loop's exit
// condition, which must veto it. Eager waitall never parks, so the event
// count is the spinning loop's less the unsignalled ACKs, which cost no
// event (docs/SIM_ENGINE.md "Elided events").

TEST(ParkingGolden, WaitallWhoseLastPendingSendJustPostedDoesNotPark) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::OsuMessageRate b(tb, {.windows = 40, .warmup_windows = 4});
  const bench::InjectionResult res = b.run();
  EXPECT_GT(res.busy_posts, 0u);
  EXPECT_EQ(std::tuple(tb.sim().events_processed(), tb.sim().now().ps(),
                       std::bit_cast<std::uint64_t>(res.cpu_per_msg_ns),
                       tb.node(0).core.busy_time().ps()),
            std::tuple(19998ull, 742687520, 4643348177563791078ull,
                       742687520));
  EXPECT_EQ(tb.node(0).worker.parks(), 0u);
}

// --- Profiler regions around whole passes charge their overhead inside
// the pass, so wrapped passes never park: event counts stay the spinning
// loop's, less the unsignalled ACKs, which cost no event.

TEST(ParkingGolden, ProfilerWrappedPassesNeverPark) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(256);
  tb.node(1).nic.post_receives(256);
  tb.node(0).profiler.wrap({prof::Site::kUctWorkerProgress});
  tb.node(1).profiler.wrap({prof::Site::kUcpWorkerProgress});
  Fnv fa, fb;
  tb.sim().spawn(ping(a, 60, fa), "ping");
  tb.sim().spawn(pong(b, 60, fb), "pong");
  tb.sim().run();
  const prof::Profiler& p0 = tb.node(0).profiler;
  const prof::Profiler& p1 = tb.node(1).profiler;
  EXPECT_EQ(std::tuple(tb.sim().events_processed(), tb.sim().now().ps(), fa.h,
                       fb.h, p0.samples("uct_worker_progress").size(),
                       p1.samples("ucp_worker_progress").size()),
            std::tuple(9541ull, 341832435, 16027016698514597336ull,
                       15837848742356851791ull, 3368ul, 3358ul));
  EXPECT_EQ(tb.node(0).worker.parks(), 0u);
  EXPECT_EQ(tb.node(1).worker.parks(), 0u);
}

// --- Two processes sharing one core: a blocked MPI_Wait and a compute
// loop drawing jittered costs from the same core RNG. The parked loop is
// woken whenever the other process uses the core, so the draws
// interleave exactly as the spinning loop's did.

sim::Task<void> mpi_wait_one(scenario::MpiStack& st, TimePs& at) {
  hlp::Request* r = st.mpi().irecv(8).value();
  (void)co_await st.mpi().wait(r);
  at = st.node().core.virtual_now();
}

sim::Task<void> compute(cpu::Core& core, TimePs& at) {
  for (int i = 0; i < 40; ++i) {
    core.consume(core.costs().md_setup);
    co_await core.flush();
    co_await core.simulator().delay(TimePs::from_ns(97.0 + 13.0 * (i % 7)));
  }
  at = core.virtual_now();
}

sim::Task<void> mpi_send_after(scenario::MpiStack& st, TimePs delay) {
  co_await st.node().core.simulator().delay(delay);
  (void)co_await st.mpi().isend(8);
  co_await st.node().core.flush();
}

TEST(ParkingGolden, TwoProcessesSharingACoreKeepDrawOrder) {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  scenario::MpiStack a(tb, 0);
  scenario::MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(16);
  TimePs waited_at, computed_at;
  tb.sim().spawn(mpi_wait_one(a, waited_at), "waiter");
  tb.sim().spawn(compute(tb.node(0).core, computed_at), "compute");
  tb.sim().spawn(mpi_send_after(b, 2500_ns), "sender");
  tb.sim().run();
  EXPECT_EQ(std::tuple(waited_at.ps(), computed_at.ps(),
                       tb.node(0).core.busy_time().ps(), tb.sim().now().ps()),
            std::tuple(3928157, 6533993, 5087150, 6533993));
  EXPECT_GT(tb.node(0).worker.parks(), 0u);
}

}  // namespace
}  // namespace bb
