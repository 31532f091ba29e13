#include "hlp/mpi.hpp"

namespace bb::hlp {

MpiComm::MpiComm(UcpWorker& ucp) : ucp_(ucp) {
  // Register the MPICH completion callback for receives; it runs inside
  // the UCP callback, before uct_worker_progress returns (§5).
  ucp_.set_upper_rx_callback([this](Request*) {
    cpu::Core& c = core();
    prof::Profiler* prof = ucp_.profiler();
    prof::Profiler::Region r;
    if (prof && wrap_ == "MPICH callback") r = prof->begin("MPICH callback");
    c.consume(c.costs().mpich_rx_callback);
    if (prof && wrap_ == "MPICH callback") prof->end(r);
  });
}

sim::Task<common::Expected<Request*>> MpiComm::isend(std::uint32_t bytes) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_mpi, r_ucp;
  if (prof && wrap_ == "MPI_Isend") r_mpi = prof->begin("MPI_Isend");

  // MPICH: datatype checks, interface selection, request setup.
  c.consume(c.costs().mpich_isend);

  if (prof && wrap_ == "ucp_tag_send_nb") {
    r_ucp = prof->begin("ucp_tag_send_nb");
  }
  common::Expected<Request*> req = co_await ucp_.tag_send_nb(bytes);
  if (prof && wrap_ == "ucp_tag_send_nb") prof->end(r_ucp);

  if (prof && wrap_ == "MPI_Isend") prof->end(r_mpi);
  ++isends_;
  co_return req;
}

common::Expected<Request*> MpiComm::irecv(std::uint32_t bytes) {
  // Receive initiation; its time is assumed to overlap the transfer (§6),
  // which holds in the simulation because the receive is posted before
  // the message is in flight. Charged as the same initiation path.
  cpu::Core& c = core();
  c.consume(c.costs().mpich_isend);
  return ucp_.tag_recv_nb(bytes);
}

template <typename Done>
sim::Task<void> MpiComm::progress_until(const Done& done) {
  // An empty pass may park the loop (docs/SIM_ENGINE.md "Parked
  // waiters") while it would keep spinning: not done, no queued work.
  const auto pass = UcpWorker::empty_pass_costs(core());
  const auto spinning = [&] { return !done() && !ucp_.has_pending_work(); };
  const llp::IdleLoop idle = llp::IdleLoop::of(pass, TimePs::max(), spinning);
  while (!done()) co_await ucp_.progress(&idle);
}

sim::Task<common::Status> MpiComm::wait(Request* req) {
  cpu::Core& c = core();
  prof::Profiler* prof = ucp_.profiler();
  prof::Profiler::Region r_wait;
  if (prof && wrap_ == "MPI_Wait") r_wait = prof->begin("MPI_Wait");

  // Fixed blocking-wait work: entry, request inspection, loop control.
  c.consume(c.costs().mpich_wait_fixed);

  // The progress engine: loop on ucp_worker_progress until complete.
  co_await progress_until([req] { return req->complete; });

  // MPICH work after the successful ucp_worker_progress returns.
  prof::Profiler::Region r_after;
  if (prof && wrap_ == "MPICH after progress") {
    r_after = prof->begin("MPICH after progress");
  }
  c.consume(c.costs().mpich_after_progress);
  if (prof && wrap_ == "MPICH after progress") prof->end(r_after);

  if (prof && wrap_ == "MPI_Wait") prof->end(r_wait);
  ++waits_;
  co_await c.flush();
  co_return req->status;
}

sim::Task<common::Status> MpiComm::waitall(const std::vector<Request*>& reqs) {
  cpu::Core& c = core();
  // Per-operation send-progress bookkeeping (HLP_tx_prog): request
  // inspection and cleanup across the window (§6, Post_prog).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  co_await progress_until([&reqs] {
    for (Request* r : reqs) {
      if (!r->complete) return false;
    }
    return true;
  });
  co_await c.flush();
  for (Request* r : reqs) {
    if (r->status != common::Status::kOk) co_return r->status;
  }
  co_return common::Status::kOk;
}

}  // namespace bb::hlp
