#pragma once
// The multi-peer communicator bb::coll schedules run over.
//
// A Cluster gives every rank one node (core, host memory, PCIe, NIC) and
// one LLP worker. A Communicator puts the rank's one protocol stack on
// top: an hlp::UcpWorker connected to every other rank through one
// endpoint each, and the hlp::MpiComm whose blocking progress engine
// drives all of those peers while the rank waits -- so a rendezvous CTS
// arriving for peer A while the rank waits on peer B is still answered.
//
// Message payload *contents* ride out of band through World's per-pair
// FIFO mailboxes (the simulator's wire carries byte counts only); since
// both the fabric and the UCP matching engine preserve per-pair order,
// the k-th receive from a peer always pairs with the k-th payload, which
// is what lets the collective tests assert reduction results.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "hlp/mpi.hpp"
#include "scenario/cluster.hpp"

namespace bb::coll {

class World;

class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  cpu::Core& core() { return node_.core; }
  scenario::Cluster::Node& node() { return node_; }
  const CollTuning& tuning() const;

  /// MPI_Isend to `peer`; `data` is the logical payload (may be empty for
  /// pure-synchronization messages) delivered through the mailbox.
  sim::Task<hlp::Request*> isend(int peer, std::uint32_t bytes,
                                 std::vector<double> data = {});
  /// MPI_Irecv from `peer`.
  hlp::Request* irecv(int peer, std::uint32_t bytes);
  /// The logical payload of the oldest completed-and-unconsumed receive
  /// from `peer` (FIFO per pair; call after the matching wait returned).
  std::vector<double> take_data(int peer);

  /// Blocking MPI_Wait, progressing every peer; kTimedOut after
  /// CollTuning::wait_timeout_us.
  sim::Task<common::Status> wait(hlp::Request* req) { return mpi_.wait(req); }
  /// MPI_Waitall over a window.
  sim::Task<common::Status> waitall(const std::vector<hlp::Request*>& reqs) {
    return mpi_.waitall(reqs);
  }

  std::uint64_t isends() const { return mpi_.isends(); }
  std::uint64_t waits() const { return mpi_.waits(); }

 private:
  friend class World;
  Communicator(World& world, scenario::Cluster& cl, int rank,
               std::uint32_t signal_period, std::uint32_t rndv_threshold);

  World& world_;
  scenario::Cluster::Node& node_;
  int rank_;
  int size_;
  hlp::UcpWorker ucp_;
  hlp::MpiComm mpi_;
};

/// All ranks of one job: builds a Communicator per cluster node and the
/// mailbox fabric between them.
class World {
 public:
  struct Config {
    /// One CQE per `signal_period` sends (UCX default 64).
    std::uint32_t signal_period = 64;
    /// UCP eager->rendezvous crossover.
    std::uint32_t rndv_threshold = 1024;
    /// Receive WQEs pre-posted per node (collectives keep the RQ fed the
    /// way MPI implementations do).
    std::uint32_t preposted_receives = 1u << 16;
  };

  World(scenario::Cluster& cl, Config cfg);
  explicit World(scenario::Cluster& cl) : World(cl, Config{}) {}

  int size() const { return static_cast<int>(comms_.size()); }
  Communicator& comm(int rank) { return *comms_[static_cast<std::size_t>(rank)]; }
  scenario::Cluster& cluster() { return cl_; }

 private:
  friend class Communicator;
  void deliver(int src, int dst, std::vector<double> data) {
    inbox_[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)]
        .push_back(std::move(data));
  }
  std::vector<double> take(int dst, int src);

  scenario::Cluster& cl_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  // inbox_[dst][src]: payloads in flight or awaiting consumption.
  std::vector<std::vector<std::deque<std::vector<double>>>> inbox_;
};

}  // namespace bb::coll
