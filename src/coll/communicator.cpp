#include "coll/communicator.hpp"

#include "common/assert.hpp"

namespace bb::coll {

Communicator::Communicator(World& world, scenario::Cluster& cl, int rank,
                           std::uint32_t signal_period,
                           std::uint32_t rndv_threshold)
    : world_(world),
      node_(cl.node(rank)),
      rank_(rank),
      size_(cl.node_count()),
      mux_(node_.worker) {
  ucp_.resize(static_cast<std::size_t>(size_));
  mpi_.resize(static_cast<std::size_t>(size_));
  for (int peer = 0; peer < size_; ++peer) {
    if (peer == rank_) continue;
    llp::EndpointConfig ec = cl.config().endpoint;
    ec.signal.period = signal_period;
    llp::Endpoint& ep = cl.add_endpoint(rank_, peer, ec);
    hlp::UcpConfig uc;
    uc.rndv_threshold = rndv_threshold;
    uc.src_rank = rank_;
    uc.attach_rx = false;  // the mux owns the node's RX handler
    auto ucp = std::make_unique<hlp::UcpWorker>(node_.worker, ep, uc);
    mux_.attach(peer, ucp.get());
    mpi_[static_cast<std::size_t>(peer)] =
        std::make_unique<hlp::MpiComm>(*ucp);
    ucp_[static_cast<std::size_t>(peer)] = std::move(ucp);
  }
}

const CollTuning& Communicator::tuning() const {
  return world_.cluster().config().coll;
}

sim::Task<hlp::Request*> Communicator::isend(int peer, std::uint32_t bytes,
                                             std::vector<double> data) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  world_.deliver(rank_, peer, std::move(data));
  ++isends_;
  common::Expected<hlp::Request*> r =
      co_await mpi_[static_cast<std::size_t>(peer)]->isend(bytes);
  co_return r.value();
}

hlp::Request* Communicator::irecv(int peer, std::uint32_t bytes) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  return mpi_[static_cast<std::size_t>(peer)]->irecv(bytes).value();
}

std::vector<double> Communicator::take_data(int peer) {
  return world_.take(rank_, peer);
}

sim::Task<std::uint32_t> Communicator::progress(const llp::IdleLoop* idle) {
  // One UCP pass for the whole communicator: drive every peer's queued
  // work (busy-post retries, rendezvous control/data), then one shared
  // uct_worker_progress whose completions the mux fans back out, then
  // the state machines those completions unblocked.
  cpu::Core& c = core();
  c.consume(c.costs().ucp_progress_iter);
  for (auto& u : ucp_) {
    if (u && u->has_pending_work()) co_await u->progress_pending();
  }
  const std::uint32_t n = co_await node_.worker.progress(0, idle);
  for (auto& u : ucp_) {
    if (u && u->has_pending_work()) co_await u->progress_pending();
  }
  co_return n;
}

bool Communicator::has_pending_work() const {
  for (const auto& u : ucp_) {
    if (u && u->has_pending_work()) return true;
  }
  return false;
}

template <typename Done>
sim::Task<common::Status> Communicator::progress_until(const Done& done) {
  cpu::Core& c = core();
  const double timeout_us = tuning().wait_timeout_us;
  const TimePs deadline =
      timeout_us > 0.0
          ? c.virtual_now() + TimePs::from_ns(timeout_us * 1000.0)
          : TimePs::max();
  const auto pass = hlp::UcpWorker::empty_pass_costs(c);
  const auto spinning = [&] { return !done() && !has_pending_work(); };
  const llp::IdleLoop idle = llp::IdleLoop::of(pass, deadline, spinning);
  while (!done()) {
    if (c.virtual_now() > deadline) {
      // Watchdog: diagnosable abort instead of a hang (the request stays
      // incomplete; the transport underneath it is stuck or flushed).
      co_await c.flush();
      co_return common::Status::kTimedOut;
    }
    co_await progress(&idle);
  }
  co_return common::Status::kOk;
}

sim::Task<common::Status> Communicator::wait(hlp::Request* req) {
  cpu::Core& c = core();
  // Same cost structure as the pt2pt MpiComm::wait; the progress engine
  // spans all peers.
  c.consume(c.costs().mpich_wait_fixed);
  const common::Status st =
      co_await progress_until([req] { return req->complete; });
  if (st != common::Status::kOk) co_return st;
  c.consume(c.costs().mpich_after_progress);
  ++waits_;
  co_await c.flush();
  co_return req->status;
}

sim::Task<common::Status> Communicator::waitall(
    const std::vector<hlp::Request*>& reqs) {
  cpu::Core& c = core();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    c.consume(c.costs().hlp_tx_prog);
  }
  const common::Status st = co_await progress_until([&reqs] {
    for (hlp::Request* r : reqs) {
      if (!r->complete) return false;
    }
    return true;
  });
  if (st != common::Status::kOk) co_return st;
  co_await c.flush();
  for (hlp::Request* r : reqs) {
    if (r->status != common::Status::kOk) co_return r->status;
  }
  co_return common::Status::kOk;
}

World::World(scenario::Cluster& cl, Config cfg) : cl_(cl) {
  const int n = cl.node_count();
  inbox_.resize(static_cast<std::size_t>(n));
  for (auto& row : inbox_) row.resize(static_cast<std::size_t>(n));
  comms_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl.node(r).nic.post_receives(cfg.preposted_receives);
    comms_.push_back(std::unique_ptr<Communicator>(new Communicator(
        *this, cl, r, cfg.signal_period, cfg.rndv_threshold)));
  }
}

std::vector<double> World::take(int dst, int src) {
  auto& q =
      inbox_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)];
  BB_ASSERT_MSG(!q.empty(), "take_data with no unconsumed receive");
  std::vector<double> d = std::move(q.front());
  q.pop_front();
  return d;
}

}  // namespace bb::coll
