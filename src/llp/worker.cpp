#include "llp/worker.hpp"

#include <utility>

#include "llp/endpoint.hpp"

namespace bb::llp {

Worker::Worker(cpu::Core& core, nic::HostMemory& host,
               prof::Profiler& profiler, WorkerConfig cfg)
    : core_(core),
      host_(host),
      profiler_(profiler),
      cfg_(cfg),
      deadline_(core.simulator(),
                [](void* w) {
                  static_cast<Worker*>(w)->wake(sim::Tie::kPassFirst);
                },
                this) {}

Worker::~Worker() {
  if (parked_) unpark();
}

sim::Task<std::uint32_t> Worker::progress(std::uint32_t max_completions,
                                          const IdleLoop* idle) {
  const std::uint32_t limit =
      max_completions == 0 ? cfg_.batch_limit : max_completions;
  const cpu::CpuCostModel& costs = core_.costs();

  const bool wrap_pass = profiler_.wraps(prof::Site::kUctWorkerProgress);
  auto r_pass = profiler_.begin(prof::Site::kUctWorkerProgress);

  std::uint32_t n = 0;
  bool found = true;
  while (n < limit && found) {
    found = false;
    const TimePs now = core_.virtual_now();

    // RX CQ first: inbound completions unblock the latency-critical path.
    if (auto cqe = host_.rx_cq().poll(now)) {
      auto r = profiler_.begin(prof::Site::kLlpProg);
      core_.consume(costs.llp_prog);
      profiler_.end(r);
      ++rx_completions_;
      if (cqe->status != common::Status::kOk) ++error_completions_;
      if (cqe->status == common::Status::kFlushed) ++flushed_completions_;
      ++n;
      found = true;
      if (rx_handler_) rx_handler_(*cqe);
      continue;
    }
    // Then each endpoint's TX CQ (skipped outright while every TX CQ of
    // the node is empty, which polls nothing either way).
    if (host_.tx_cqes_present() == 0) break;
    for (Endpoint* ep : endpoints_) {
      if (auto cqe = ep->tx_cq().poll(now)) {
        auto r = profiler_.begin(prof::Site::kLlpProg);
        core_.consume(costs.llp_prog);
        profiler_.end(r);
        ++tx_cqes_polled_;
        tx_ops_retired_ += cqe->completes;
        if (cqe->status != common::Status::kOk) ++error_completions_;
        if (cqe->status == common::Status::kFlushed) ++flushed_completions_;
        ++n;
        found = true;
        ep->on_tx_cqe(*cqe);
        break;
      }
    }
  }

  if (n == 0) {
    // An empty pass still pays the load barrier and the CQ read miss.
    core_.consume(costs.llp_empty_progress);
    if (idle != nullptr && !wrap_pass && can_park(*idle)) {
      // Resumes with this pass's time already flushed: the loop carries
      // on exactly where the flush below would have left it.
      co_await Park{*this, *idle};
      co_return 0;
    }
  }

  profiler_.end(r_pass);

  // Materialize the consumed time so subsequent polls observe later CQEs.
  co_await core_.flush();
  co_return n;
}

// Parking is exact only while the next pass is bound to come up empty
// and to cost exactly `pass_costs`: no completion is present, the loop
// itself would spin on, and it would not time out before that pass. A
// write still in flight does not stop it: its commit wakes the loop.
bool Worker::can_park(const IdleLoop& loop) const {
  return host_.rx_cq().depth() == 0 && host_.tx_cqes_present() == 0 &&
         core_.virtual_now() <= loop.deadline && loop.spinning(loop.ctx);
}

void Worker::park(std::coroutine_handle<> h, const IdleLoop& loop) {
  BB_ASSERT_MSG(core_.parked() == nullptr, "a loop is already parked here");
  sim::Simulator& sim = core_.simulator();
  parked_ = h;
  loop_ = &loop;
  // The flush this pass skips: the next pass starts once its time is up.
  next_pass_ = sim.now() + core_.take_pending();
  host_.park(this);
  core_.set_parked(this);
  if (loop.deadline != TimePs::max()) deadline_.arm(loop.deadline);
  sim.note_parked();
  ++parks_;
}

void Worker::wake(sim::Tie tie) {
  sim::Simulator& sim = core_.simulator();
  // Replay the skipped passes that cannot have seen the wake: those that
  // start before it, and with kPassFirst one that starts exactly at it
  // (a deadline stops only passes that start after it). A pass that
  // starts exactly at a commit runs after it and sees the write. Resume
  // at the first pass left.
  bool inclusive = tie == sim::Tie::kPassFirst;
  if (std::exchange(noticed_, false)) {
    if (!sim.precedes_current(next_pass_, pass_seq_)) {
      // The pass after the last notice has not run: resume there, at the
      // place its resume took at the notice.
      unpark();
      sim.schedule_at_reserved(next_pass_, pass_seq_,
                               std::exchange(parked_, {}));
      return;
    }
    // That pass ran before this wake, came up empty and parked the loop
    // again: it is replayed, also when it starts at the wake.
    inclusive = inclusive || next_pass_ == sim.now();
  }
  next_pass_ = core_.replay_until(loop_->pass_costs, next_pass_, sim.now(),
                                  inclusive, replayed_passes_);
  unpark();
  sim.schedule_at(next_pass_, std::exchange(parked_, {}));
}

std::optional<sim::PassPlace> Worker::notice() {
  sim::Simulator& sim = core_.simulator();
  // A write noticed now commits RC-to-MEM later: passes that start up to
  // and at the notice miss it, and so does the next. That pass takes the
  // seq its resume would have taken here.
  noticed_ = false;
  next_pass_ = core_.replay_until(loop_->pass_costs, next_pass_, sim.now(),
                                  /*inclusive=*/true, replayed_passes_);
  if (next_pass_ > loop_->deadline) {
    // That pass times the loop out: resume there.
    wake(sim::Tie::kPassFirst);
    return std::nullopt;
  }
  noticed_ = true;
  pass_seq_ = sim.reserve_seq();
  return sim::PassPlace{&sim, next_pass_, pass_seq_};
}

void Worker::unpark() {
  deadline_.cancel();
  host_.unpark(this);
  core_.set_parked(nullptr);
  core_.simulator().note_unparked();
}

}  // namespace bb::llp
