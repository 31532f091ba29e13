#pragma once
// The MPI-like layer (MPICH/CH4-style) on top of UCP (§5).
//
// Implements the subset of MPI semantics the paper's evaluation exercises:
// nonblocking initiation (Isend/Irecv), blocking completion (Wait on one
// request, Waitall on a window), and the blocking progress engine that
// loops on ucp_worker_progress. Per-layer costs are charged where the
// paper measures them: MPICH initiation work inside MPI_Isend above
// ucp_tag_send_nb; the registered MPICH receive callback inside UCP's;
// the fixed blocking-wait work and the post-progress epilogue inside
// MPI_Wait; and the per-operation send-progress bookkeeping inside
// MPI_Waitall (Post_prog, §6). One MpiComm serves one rank: its progress
// engine drives the protocol state toward every connected peer, so a
// rendezvous CTS for peer A is answered while the rank waits on peer B.

#include <vector>

#include "hlp/request.hpp"
#include "hlp/ucp.hpp"

namespace bb::hlp {

class MpiComm {
 public:
  /// `wait_timeout_us` > 0 arms a watchdog on every blocking wait: a wait
  /// still incomplete that long after it started returns kTimedOut
  /// instead of hanging. 0 waits forever.
  explicit MpiComm(UcpWorker& ucp, double wait_timeout_us = 0.0);

  UcpWorker& ucp() { return ucp_; }
  cpu::Core& core() { return ucp_.core(); }

  /// MPI_Isend of `bytes` to `peer`.
  sim::Task<common::Expected<Request*>> isend(int peer, std::uint32_t bytes);
  /// MPI_Isend to the worker's sole peer.
  sim::Task<common::Expected<Request*>> isend(std::uint32_t bytes) {
    return isend(ucp_.sole_peer(), bytes);
  }
  /// MPI_Irecv of `bytes` from `peer`.
  common::Expected<Request*> irecv(int peer, std::uint32_t bytes);
  /// MPI_Irecv from the worker's sole peer.
  common::Expected<Request*> irecv(std::uint32_t bytes) {
    return irecv(ucp_.sole_peer(), bytes);
  }
  /// Blocking MPI_Wait for one request; returns the request's final
  /// disposition (kIoError when it was retired by an error completion,
  /// kTimedOut when the watchdog fired first). A request returned
  /// complete goes back to the worker (UcpWorker::release): it stays
  /// readable until this rank's next isend/irecv. A timed-out request is
  /// kept.
  sim::Task<common::Status> wait(Request* req);
  /// MPI_Waitall over a window of requests; returns kOk, kTimedOut, or
  /// the first non-OK request status in window order. Unless it timed
  /// out, every request goes back to the worker as wait() describes.
  sim::Task<common::Status> waitall(const std::vector<Request*>& reqs);

  std::uint64_t isends() const { return isends_; }
  std::uint64_t waits() const { return waits_; }

 private:
  /// The blocking progress engine: ucp_worker_progress until `done()` or
  /// the watchdog.
  template <typename Done>
  sim::Task<common::Status> progress_until(const Done& done);

  UcpWorker& ucp_;
  double wait_timeout_us_;
  std::uint64_t isends_ = 0;
  std::uint64_t waits_ = 0;
};

}  // namespace bb::hlp
