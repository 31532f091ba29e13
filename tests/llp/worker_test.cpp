#include "llp/worker.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "llp/endpoint.hpp"
#include "scenario/testbed.hpp"

namespace bb::llp {
namespace {

using scenario::Testbed;
using namespace bb::literals;

TEST(Worker, EmptyProgressCostsEmptyPass) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 0u);
    EXPECT_NEAR(n.core.virtual_now().to_ns(),
                n.core.costs().llp_empty_progress.mean_ns, 1e-6);
  }(tb.node(0)));
  tb.sim().run();
}

TEST(Worker, EachDequeuedCqeCostsLlpProg) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  // Inject two CQEs directly into the TX CQ at time zero.
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{1, 1, 0, 0, 0_ns});
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{2, 1, 0, 0, 0_ns});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    // Make the endpoint accounting consistent with the injected CQEs.
    (void)co_await e.put_short(8);
    (void)co_await e.put_short(8);
    const double t0 = n.core.virtual_now().to_ns();
    const std::uint32_t got = co_await n.worker.progress();
    EXPECT_EQ(got, 2u);
    EXPECT_NEAR(n.core.virtual_now().to_ns() - t0, 2 * 61.63, 1e-6);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, BatchLimitBoundsDequeues) {
  auto cfg = scenario::presets::deterministic();
  cfg.llp_worker.batch_limit = 16;
  Testbed tb(cfg);
  auto& ep = tb.add_endpoint(0);
  for (int i = 0; i < 5; ++i) {
    tb.node(0).host.tx_cq(ep.qp()).push(
        nic::Cqe{static_cast<std::uint64_t>(i + 1), 1, 0, 0, 0_ns});
  }
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 2u);
    EXPECT_EQ(co_await n.worker.progress(2), 1u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, RxHandlerInvokedPerReceiveCompletion) {
  Testbed tb(scenario::presets::deterministic());
  tb.add_endpoint(0);
  std::vector<std::uint64_t> seen;
  tb.node(0).worker.set_rx_handler(
      [&](const nic::Cqe& c) { seen.push_back(c.msg_id); });
  tb.node(0).host.rx_cq().push(nic::Cqe{21, 1, 0, 0, 0_ns});
  tb.node(0).host.rx_cq().push(nic::Cqe{22, 1, 0, 0, 0_ns});
  tb.sim().spawn([](Testbed::Node& n) -> sim::Task<void> {
    (void)co_await n.worker.progress();
  }(tb.node(0)));
  tb.sim().run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{21, 22}));
  EXPECT_EQ(tb.node(0).worker.rx_completions(), 2u);
}

TEST(Worker, InvisibleCqesNotDequeued) {
  Testbed tb(scenario::presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.node(0).host.tx_cq(ep.qp()).push(nic::Cqe{1, 1, 0, 0, 10_us});
  tb.sim().spawn([](Testbed::Node& n, Endpoint& e) -> sim::Task<void> {
    (void)co_await e.put_short(8);
    EXPECT_EQ(co_await n.worker.progress(), 0u);
  }(tb.node(0), ep));
  tb.sim().run();
}

TEST(Worker, MsgIdsAreUniqueAndMonotonic) {
  Testbed tb(scenario::presets::deterministic());
  auto& w = tb.node(0).worker;
  const auto a = w.alloc_msg_id();
  const auto b = w.alloc_msg_id();
  EXPECT_LT(a, b);
}

// --- Parked wait loops on one node, driven directly: jitter-free passes
// of ucp_progress_iter + llp_empty_progress back to back from t = 0, and
// writes into the node's RX CQ given as the Root Complex gives them, a
// notice at MWr arrival and the commit later (docs/SIM_ENGINE.md "Parked
// waiters").

cpu::CpuCostModel jitter_free() {
  cpu::CpuCostModel m;
  m.strip_jitter();
  return m;
}

struct Rank {
  Rank(sim::Simulator& sim, nic::HostMemory& host)
      : core(sim, jitter_free()), profiler(core), worker(core, host, profiler) {}
  cpu::Core core;
  prof::Profiler profiler;
  Worker worker;
  TimePs seen_at;
};

// Waits, parked (or spinning, one event per pass), for one receive.
sim::Task<void> wait_one(Rank& r, bool park, std::string& winners, char id) {
  const cpu::CostSpec* const costs[] = {&r.core.costs().ucp_progress_iter,
                                        &r.core.costs().llp_empty_progress};
  const auto spinning = [&r] { return r.worker.rx_completions() == 0; };
  const IdleLoop idle = IdleLoop::of(costs, TimePs::max(), spinning);
  while (r.worker.rx_completions() == 0) {
    r.core.consume(r.core.costs().ucp_progress_iter);
    (void)co_await r.worker.progress(0, park ? &idle : nullptr);
  }
  r.seen_at = r.core.virtual_now();
  winners += id;
}

void write_at(sim::Simulator& sim, nic::HostMemory& host,
              std::initializer_list<TimePs> notices, TimePs visible) {
  for (const TimePs n : notices) {
    sim.call_at(n, [&host] { host.note_write_scheduled(); });
  }
  sim.call_at(visible, [&host, visible] {
    pcie::Tlp tlp;
    tlp.type = pcie::TlpType::kMemWrite;
    tlp.content = pcie::PayloadWrite{.bytes = 8, .op = pcie::WireOp::kSend};
    host.commit_write(tlp, visible);
  });
}

TimePs pass_of(const Rank& r) {
  return r.core.costs().ucp_progress_iter.mean() +
         r.core.costs().llp_empty_progress.mean();
}

TEST(Worker, NoticedWriteCostsOneParkAndResumesWhereTheSpinningLoopSeesIt) {
  // The notice leaves the loop parked through the pass after it: one
  // park for the whole wait, and the pass that sees the commit is the
  // spinning loop's.
  std::vector<TimePs> seen;
  for (const bool park : {false, true}) {
    sim::Simulator sim{3};
    nic::HostMemory host;
    Rank r(sim, host);
    std::string winners;
    const TimePs pass = pass_of(r);
    sim.spawn(wait_one(r, park, winners, 'a'), "waiter");
    write_at(sim, host, {pass * 100 + pass / 3}, pass * 130 + pass / 2);
    sim.run();
    EXPECT_EQ(winners, "a");
    EXPECT_EQ(r.worker.parks(), park ? 1u : 0u);
    if (park) {
      // The start, the notice, the commit, the resume at the pass that
      // sees the write and that pass's flush.
      EXPECT_EQ(sim.events_processed(), 5u);
    }
    seen.push_back(r.seen_at);
  }
  EXPECT_EQ(seen[0], seen[1]);
}

// Two loops parked on one node's memory are woken last-parked first, and
// a notice's pass parks its loop again at that pass's place: whichever
// loop that makes first to resume at a commit takes the write. Expected
// orders are those of loops that resume at every notice.
std::string first_to_see(std::initializer_list<double> notices_in_passes) {
  sim::Simulator sim{3};
  nic::HostMemory host;
  Rank a(sim, host), b(sim, host);
  std::string winners;
  const TimePs pass = pass_of(a);
  sim.spawn(wait_one(a, true, winners, 'a'), "a");
  sim.spawn(wait_one(b, true, winners, 'b'), "b");
  for (const double n : notices_in_passes) {
    sim.call_at(pass.scaled(n), [&host] { host.note_write_scheduled(); });
  }
  write_at(sim, host, {}, pass * 30 + pass / 2);
  write_at(sim, host, {}, pass * 40 + pass / 2);
  sim.run();
  EXPECT_EQ(sim.parked(), 0u);
  EXPECT_EQ(a.seen_at.ps() % pass.ps(), b.seen_at.ps() % pass.ps());
  return winners;
}

TEST(Worker, PollersOnOneNodeResumeInTheOrderTheyParkedAgain) {
  // No notice: b parked last and resumes first.
  EXPECT_EQ(first_to_see({}), "ba");
  // A notice: b's pass after it runs first, so a parks again last.
  EXPECT_EQ(first_to_see({10.3}), "ab");
  // A second notice before those passes changes nothing: neither loop
  // was parked at it.
  EXPECT_EQ(first_to_see({10.3, 10.6}), "ab");
  // A second notice after them flips the order again.
  EXPECT_EQ(first_to_see({10.3, 20.3}), "ba");
}

}  // namespace
}  // namespace bb::llp
