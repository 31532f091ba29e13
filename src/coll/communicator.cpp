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
      ucp_(node_.worker, hlp::UcpConfig{rndv_threshold}),
      mpi_(ucp_, cl.config().coll.wait_timeout_us) {
  for (int peer = 0; peer < size_; ++peer) {
    if (peer == rank_) continue;
    llp::EndpointConfig ec = cl.config().endpoint;
    ec.signal.period = signal_period;
    ucp_.connect(cl.add_endpoint(rank_, peer, ec));
  }
}

const CollTuning& Communicator::tuning() const {
  return world_.cluster().config().coll;
}

sim::Task<hlp::Request*> Communicator::isend(int peer, std::uint32_t bytes,
                                             std::vector<double> data) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  world_.deliver(rank_, peer, std::move(data));
  common::Expected<hlp::Request*> r = co_await mpi_.isend(peer, bytes);
  co_return r.value();
}

hlp::Request* Communicator::irecv(int peer, std::uint32_t bytes) {
  BB_ASSERT(peer >= 0 && peer < size_ && peer != rank_);
  return mpi_.irecv(peer, bytes).value();
}

std::vector<double> Communicator::take_data(int peer) {
  return world_.take(rank_, peer);
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
