// Ablation: polling vs interrupt-driven completion (§2).
//
// "The user could also request to be notified with an interrupt
// regarding the completion. However, the polling approach is
// latency-oriented since there is no context switch to the kernel in
// the critical path." This bench quantifies that: a UCT-level ping-pong
// where the receiver either spins on the CQ (the paper's configuration)
// or sleeps until the completion's DMA write fires the interrupt and
// pays the kernel wake-up cost -- while burning no CPU while idle.

#include <coroutine>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;
using namespace bb::literals;
using scenario::Testbed;

namespace {

constexpr int kIters = 800;

/// One node's completion interrupt: a process sleeps on it until the
/// next DMA write (CQE or payload) commits into the node's memory. The
/// line is the node's HostMemory commit hook; the sleeper resumes on the
/// ready ring at the commit's time, behind the events already queued.
class Interrupt {
 public:
  Interrupt(sim::Simulator& sim, nic::HostMemory& host) : host_(host) {
    host.set_commit_hook([this, &sim] {
      if (sleeper_) sim.schedule_at(sim.now(), std::exchange(sleeper_, {}));
    });
  }
  ~Interrupt() { host_.set_commit_hook({}); }
  Interrupt(const Interrupt&) = delete;
  Interrupt& operator=(const Interrupt&) = delete;

  struct Awaiter {
    Interrupt& irq;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      BB_ASSERT_MSG(!irq.sleeper_, "one sleeper per interrupt line");
      irq.sleeper_ = h;
    }
    void await_resume() const noexcept {}
  };
  /// Sleeps until the next DMA write commits.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  nic::HostMemory& host_;
  std::coroutine_handle<> sleeper_;
};

struct Result {
  double latency_ns;       // one-way
  double rx_cpu_per_iter;  // receiver CPU time per iteration
};

sim::Task<void> initiator(Testbed& tb, llp::Endpoint& ep, Interrupt& irq,
                          bool interrupts, double* latency) {
  auto& node = tb.node(0);
  const double t0 = node.core.virtual_now().to_ns();
  for (int i = 0; i < kIters; ++i) {
    while (co_await ep.am_short(8) != llp::Status::kOk) {
      co_await node.worker.progress();
    }
    const std::uint64_t seen = node.worker.rx_completions();
    while (node.worker.rx_completions() == seen) {
      if (interrupts && node.host.rx_cq().depth() == 0) {
        co_await irq.wait();
        node.core.consume(node.core.costs().interrupt_wakeup);
      }
      co_await node.worker.progress();
    }
  }
  *latency = (node.core.virtual_now().to_ns() - t0) / (2.0 * kIters);
}

sim::Task<void> responder(Testbed& tb, llp::Endpoint& ep, Interrupt& irq,
                          bool interrupts) {
  auto& node = tb.node(1);
  for (int i = 0; i < kIters; ++i) {
    const std::uint64_t seen = node.worker.rx_completions();
    while (node.worker.rx_completions() == seen) {
      if (interrupts && node.host.rx_cq().depth() == 0) {
        // Sleep until a DMA write lands, then pay the kernel wake-up.
        co_await irq.wait();
        node.core.consume(node.core.costs().interrupt_wakeup);
      }
      co_await node.worker.progress();
    }
    while (co_await ep.am_short(8) != llp::Status::kOk) {
      co_await node.worker.progress();
    }
  }
}

Result run(bool interrupts) {
  Testbed tb(scenario::presets::deterministic());
  tb.analyzer().set_enabled(false);
  auto& ep0 = tb.add_endpoint(0);
  auto& ep1 = tb.add_endpoint(1);
  tb.node(0).nic.post_receives(kIters + 2);
  tb.node(1).nic.post_receives(kIters + 2);
  Interrupt irq0(tb.sim(), tb.node(0).host);
  Interrupt irq1(tb.sim(), tb.node(1).host);
  Result r{};
  tb.sim().spawn(initiator(tb, ep0, irq0, interrupts, &r.latency_ns));
  tb.sim().spawn(responder(tb, ep1, irq1, interrupts));
  tb.sim().run();
  r.rx_cpu_per_iter =
      tb.node(1).core.busy_time().to_ns() / static_cast<double>(kIters);
  return r;
}

/// Sparse traffic: one inbound message every 50 us. This is where
/// interrupts pay off -- the poller burns the whole gap spinning.
double sparse_rx_cpu_per_msg(bool interrupts) {
  constexpr int kMsgs = 40;
  Testbed tb(scenario::presets::deterministic());
  tb.analyzer().set_enabled(false);
  auto& ep = tb.add_endpoint(0);
  tb.node(1).nic.post_receives(kMsgs + 2);

  tb.sim().spawn([](Testbed& t, llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      co_await t.sim().delay(50_us);
      while (co_await e.am_short(8) != llp::Status::kOk) {
        co_await t.node(0).worker.progress();
      }
      co_await t.node(0).core.flush();
    }
  }(tb, ep));

  Interrupt irq(tb.sim(), tb.node(1).host);
  tb.sim().spawn([](Testbed& t, Interrupt& rx_irq,
                    bool intr) -> sim::Task<void> {
    auto& node = t.node(1);
    for (int i = 0; i < kMsgs; ++i) {
      const std::uint64_t seen = node.worker.rx_completions();
      while (node.worker.rx_completions() == seen) {
        if (intr && node.host.rx_cq().depth() == 0) {
          co_await rx_irq.wait();
          node.core.consume(node.core.costs().interrupt_wakeup);
        }
        co_await node.worker.progress();
      }
    }
  }(tb, irq, interrupts));

  tb.sim().run();
  return tb.node(1).core.busy_time().to_ns() / static_cast<double>(kMsgs);
}

}  // namespace

int main(int argc, char** argv) {
  bbench::header("bench_ablation_interrupt -- polling vs interrupts",
                 "§2's polling-vs-interrupt trade-off (design ablation)");

  // Four independent simulations: {tight, sparse} x {polling, interrupt}.
  struct Cell {
    bool sparse;
    bool interrupts;
  };
  const auto res = exec::run_sweep(
      exec::sweep<Cell>(
          {{false, false}, {false, true}, {true, false}, {true, true}}),
      [](const Cell& c, exec::Job&) {
        if (c.sparse) return Result{0.0, sparse_rx_cpu_per_msg(c.interrupts)};
        return run(c.interrupts);
      },
      bbench::exec_options(argc, argv));
  bbench::note_exec("interrupt ablation", res);

  const Result poll = res.values[0];
  const Result intr = res.values[1];

  std::printf("tight ping-pong (latency-critical):\n");
  std::printf("%-12s %16s %22s\n", "mode", "latency (ns)",
              "RX CPU per iter (ns)");
  std::printf("%-12s %16.2f %22.2f\n", "polling", poll.latency_ns,
              poll.rx_cpu_per_iter);
  std::printf("%-12s %16.2f %22.2f\n", "interrupt", intr.latency_ns,
              intr.rx_cpu_per_iter);
  std::printf("=> +%.0f ns per direction; no CPU saving either -- in a\n"
              "   tight loop the wake-up costs as much as the spin, which\n"
              "   is why the latency-oriented configuration polls (§2).\n\n",
              intr.latency_ns - poll.latency_ns);

  const double sparse_poll = res.values[2].rx_cpu_per_iter;
  const double sparse_intr = res.values[3].rx_cpu_per_iter;
  std::printf("sparse traffic (one message per 50 us):\n");
  std::printf("%-12s %22s\n", "mode", "RX CPU per msg (ns)");
  std::printf("%-12s %22.2f\n", "polling", sparse_poll);
  std::printf("%-12s %22.2f\n", "interrupt", sparse_intr);
  std::printf("=> interrupts reclaim %.1f us of CPU per message\n",
              (sparse_poll - sparse_intr) / 1e3);

  bbench::Validator v;
  v.is_true("polling is latency-oriented (faster)",
            poll.latency_ns < intr.latency_ns);
  v.is_true("interrupt pays ~a context switch per direction",
            intr.latency_ns - poll.latency_ns > 1500.0);
  v.is_true("tight loop: interrupts save no CPU",
            intr.rx_cpu_per_iter >= poll.rx_cpu_per_iter * 0.8);
  v.is_true("sparse traffic: interrupts reclaim most of the spin",
            sparse_intr < sparse_poll / 4.0);
  return v.finish();
}
