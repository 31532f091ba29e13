#pragma once
// Convenience bundle: the full software stack of one node -- a UCT
// endpoint, the UCP worker connected through it to the other node, and
// the MPI layer on top -- wired to a Testbed node. This is the §5 stack
// (MPICH/CH4 over UCP over UCT).

#include <memory>
#include <optional>

#include "hlp/mpi.hpp"
#include "hlp/ucp.hpp"
#include "scenario/testbed.hpp"

namespace bb::scenario {

class MpiStack {
 public:
  /// `signal_period` defaults to UCX's unsignalled-completion setting
  /// (one CQE per 64 ops, §6).
  MpiStack(Testbed& tb, int node_id, std::uint32_t signal_period = 64)
      : node_(tb.node(node_id)),
        endpoint_(make_endpoint(tb, node_id, signal_period)),
        ucp_(std::make_unique<hlp::UcpWorker>(node_.worker)),
        mpi_(std::make_unique<hlp::MpiComm>(*ucp_)) {
    ucp_->connect(endpoint_);
  }

  Cluster::Node& node() { return node_; }
  llp::Endpoint& endpoint() { return endpoint_; }
  hlp::UcpWorker& ucp() { return *ucp_; }
  hlp::MpiComm& mpi() { return *mpi_; }

 private:
  static llp::Endpoint& make_endpoint(Testbed& tb, int node_id,
                                      std::uint32_t signal_period) {
    llp::EndpointConfig cfg = tb.config().endpoint;
    cfg.signal.period = signal_period;
    return tb.add_endpoint(node_id, cfg);
  }

  Cluster::Node& node_;
  llp::Endpoint& endpoint_;
  std::unique_ptr<hlp::UcpWorker> ucp_;
  std::unique_ptr<hlp::MpiComm> mpi_;
};

}  // namespace bb::scenario
