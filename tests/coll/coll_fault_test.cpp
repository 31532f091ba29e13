// Collectives over a lossy fabric (docs/TRANSPORT.md): the NIC's RC
// transport recovers drops underneath the schedule, so reductions stay
// exact; the CollTuning wait watchdog converts what would be a hang into
// a diagnosable kTimedOut.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coll/coll.hpp"
#include "scenario/cluster.hpp"

namespace bb::coll {
namespace {

std::unique_ptr<scenario::Cluster> make_lossy_cluster(int n, double loss) {
  return std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::wire_loss(loss)),
      n);
}

// Runs one allreduce on every rank of `cl` and checks the sums are exact.
void expect_exact_allreduce(scenario::Cluster& cl, std::uint32_t bytes,
                            Algo a) {
  const int n = cl.node_count();
  World world(cl);
  const std::uint32_t elems = bytes / 8;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl.sim().spawn([](Communicator& c, std::uint32_t b, std::uint32_t e,
                      Algo algo, std::vector<double>& out) -> sim::Task<void> {
      std::vector<double> v(e);
      for (std::uint32_t i = 0; i < e; ++i) {
        v[i] = static_cast<double>((c.rank() + 1) * (static_cast<int>(i) + 1));
      }
      co_await allreduce(c, b, v, ReduceOp::kSum, algo);
      out = std::move(v);
    }(world.comm(r), bytes, elems, a, got[static_cast<std::size_t>(r)]));
  }
  cl.sim().run();

  // Reductions stay exact: the recovery layers hid every fault.
  for (int r = 0; r < n; ++r) {
    const auto& v = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(v.size(), elems) << "rank " << r << " algo=" << algo_name(a);
    for (std::uint32_t i = 0; i < elems; ++i) {
      const double expect =
          static_cast<double>(n * (n + 1) / 2 * (static_cast<int>(i) + 1));
      EXPECT_EQ(v[i], expect)
          << "rank " << r << " elem " << i << " algo=" << algo_name(a);
    }
  }
}

void check_allreduce_lossy(int n, std::uint32_t bytes, Algo a, double loss,
                           bool expect_drops) {
  auto cl = make_lossy_cluster(n, loss);
  expect_exact_allreduce(*cl, bytes, a);
  const net::TransportStats s = cl->net_stats();
  EXPECT_EQ(s.packets_sent + s.packets_duplicated,
            s.packets_delivered + s.packets_dropped + s.packets_corrupted);
  EXPECT_EQ(s.qp_errors, 0u);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(cl->node(i).nic.tx_unacked(), 0u) << "node " << i;
  }
  if (expect_drops) {
    EXPECT_GT(s.packets_dropped, 0u);
    EXPECT_GE(s.retransmits, s.packets_dropped);
  }
}

TEST(CollFault, AllreduceExactUnderMildWireLoss) {
  // The acceptance rate of the issue: loss 1e-3, both algorithms, no
  // hangs, exact results.
  check_allreduce_lossy(8, 256, Algo::kRecursiveDoubling, 1e-3,
                        /*expect_drops=*/false);
  check_allreduce_lossy(8, 2048, Algo::kRingAllreduce, 1e-3,
                        /*expect_drops=*/false);
}

TEST(CollFault, AllreduceExactUnderHeavyWireLoss) {
  // 1% loss guarantees the recovery machinery actually ran (seeded, so
  // the drop count is deterministic and nonzero).
  check_allreduce_lossy(8, 2048, Algo::kRingAllreduce, 1e-2,
                        /*expect_drops=*/true);
}

TEST(CollFault, LinkFaultsAccountedAcrossAllNodes) {
  // PCIe link faults on every node of a 4-rank ring: the data-link layer
  // replays them underneath the schedule, and the cluster merges every
  // node's injector into one account.
  scenario::Cluster cl(scenario::presets::thunderx2_cx4().with(
                           scenario::overlays::faults(0.05)),
                       4);
  expect_exact_allreduce(cl, 2048, Algo::kRingAllreduce);
  const fault::FaultStats fs = cl.fault_stats();
  EXPECT_GT(fs.replays, 0u);
  EXPECT_EQ(fs.poisoned_tlps, 0u);
  cl.publish_fault_counters();
  EXPECT_EQ(cl.node(0).profiler.counter("fault.replays"), fs.replays);
}

TEST(CollFault, WaitWatchdogTurnsAHangIntoTimedOut) {
  // Rank 0 waits on a receive no one will ever send. Without the
  // watchdog this spins forever; with it the wait aborts with a
  // diagnosable status and the simulation drains.
  coll::CollTuning t;
  t.wait_timeout_us = 50.0;  // short watchdog to keep the test cheap
  auto cl = std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::coll_tuning(t)),
      2);
  World world(*cl);
  common::Status st = common::Status::kOk;
  cl->sim().spawn([](Communicator& c, common::Status& out) -> sim::Task<void> {
    hlp::Request* r = c.irecv(1, 8);
    out = co_await c.wait(r);
  }(world.comm(0), st));
  cl->sim().run();
  EXPECT_EQ(st, common::Status::kTimedOut);
}

TEST(CollFault, WaitallWatchdogAlsoFires) {
  coll::CollTuning t;
  t.wait_timeout_us = 50.0;
  auto cl = std::make_unique<scenario::Cluster>(
      scenario::presets::deterministic().with(
          scenario::overlays::coll_tuning(t)),
      2);
  World world(*cl);
  common::Status st = common::Status::kOk;
  cl->sim().spawn([](Communicator& c, common::Status& out) -> sim::Task<void> {
    std::vector<hlp::Request*> reqs = {c.irecv(1, 8), c.irecv(1, 8)};
    out = co_await c.waitall(reqs);
  }(world.comm(0), st));
  cl->sim().run();
  EXPECT_EQ(st, common::Status::kTimedOut);
}

}  // namespace
}  // namespace bb::coll
