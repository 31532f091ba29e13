#include "hlp/mpi.hpp"

namespace bb::hlp {

MpiComm::MpiComm(UcpWorker& ucp, double wait_timeout_us)
    : ucp_(ucp), wait_timeout_us_(wait_timeout_us) {
  // Register the MPICH completion callback for receives; it runs inside
  // the UCP callback, before uct_worker_progress returns (§5).
  ucp_.set_upper_rx_callback([this](Request*) {
    cpu::Core& c = core();
    prof::Profiler& prof = ucp_.profiler();
    auto r = prof.begin(prof::Site::kMpichCallback);
    c.consume(c.costs().mpich_rx_callback);
    prof.end(r);
  });
}

sim::Task<common::Expected<Request*>> MpiComm::isend(int peer,
                                                     std::uint32_t bytes) {
  cpu::Core& c = core();
  prof::Profiler& prof = ucp_.profiler();
  auto r_mpi = prof.begin(prof::Site::kMpiIsend);

  // MPICH: datatype checks, interface selection, request setup.
  c.consume(c.costs().mpich_isend);

  auto r_ucp = prof.begin(prof::Site::kUcpTagSendNb);
  common::Expected<Request*> req = co_await ucp_.tag_send_nb(peer, bytes);
  prof.end(r_ucp);

  prof.end(r_mpi);
  ++isends_;
  co_return req;
}

common::Expected<Request*> MpiComm::irecv(int peer, std::uint32_t bytes) {
  // Receive initiation; its time is assumed to overlap the transfer (§6),
  // which holds in the simulation because the receive is posted before
  // the message is in flight. Charged as the same initiation path.
  cpu::Core& c = core();
  c.consume(c.costs().mpich_isend);
  return ucp_.tag_recv_nb(peer, bytes);
}

template <typename Done>
sim::Task<common::Status> MpiComm::progress_until(const Done& done) {
  cpu::Core& c = core();
  const TimePs deadline =
      wait_timeout_us_ > 0.0
          ? c.virtual_now() + TimePs::from_ns(wait_timeout_us_ * 1000.0)
          : TimePs::max();
  // An empty pass may park the loop (docs/SIM_ENGINE.md "Parked
  // waiters") while it would keep spinning: not done, no queued work.
  const auto pass = UcpWorker::empty_pass_costs(c);
  const auto spinning = [&] { return !done() && !ucp_.has_pending_work(); };
  const llp::IdleLoop idle = llp::IdleLoop::of(pass, deadline, spinning);
  while (!done()) {
    if (c.virtual_now() > deadline) {
      // Watchdog: diagnosable abort instead of a hang (the request stays
      // incomplete; the transport underneath it is stuck or flushed).
      co_await c.flush();
      co_return common::Status::kTimedOut;
    }
    co_await ucp_.progress(&idle);
  }
  co_return common::Status::kOk;
}

sim::Task<common::Status> MpiComm::wait(Request* req) {
  cpu::Core& c = core();
  prof::Profiler& prof = ucp_.profiler();
  auto r_wait = prof.begin(prof::Site::kMpiWait);

  // Fixed blocking-wait work: entry, request inspection, loop control.
  c.consume(c.costs().mpich_wait_fixed);

  // The progress engine: loop on ucp_worker_progress until complete.
  const common::Status st =
      co_await progress_until([req] { return req->complete; });
  if (st != common::Status::kOk) co_return st;

  // MPICH work after the successful ucp_worker_progress returns.
  auto r_after = prof.begin(prof::Site::kMpichAfterProgress);
  c.consume(c.costs().mpich_after_progress);
  prof.end(r_after);

  prof.end(r_wait);
  ++waits_;
  co_await c.flush();
  ucp_.release(req);
  co_return req->status;
}

sim::Task<common::Status> MpiComm::waitall(const std::vector<Request*>& reqs) {
  cpu::Core& c = core();
  // Per-operation send-progress bookkeeping (HLP_tx_prog): request
  // inspection and cleanup across the window (§6, Post_prog).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  const common::Status st = co_await progress_until([&reqs] {
    for (Request* r : reqs) {
      if (!r->complete) return false;
    }
    return true;
  });
  if (st != common::Status::kOk) co_return st;
  co_await c.flush();
  for (Request* r : reqs) ucp_.release(r);
  for (Request* r : reqs) {
    if (r->status != common::Status::kOk) co_return r->status;
  }
  co_return common::Status::kOk;
}

}  // namespace bb::hlp
