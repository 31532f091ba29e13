#pragma once
// The two-node testbed of §3 (Fig. 3): Cluster(cfg, 2) plus pair-peer
// add_endpoint overloads -- an endpoint on node n targets node 1 - n.
// Node 0 is the initiator; the analyzer taps its link, just before the NIC.

#include <optional>

#include "scenario/cluster.hpp"

namespace bb::scenario {

class Testbed : public Cluster {
 public:
  explicit Testbed(SystemConfig cfg) : Cluster(std::move(cfg), 2) {}

  using Cluster::add_endpoint;
  llp::Endpoint& add_endpoint(int node_id,
                              std::optional<llp::EndpointConfig> cfg = {}) {
    return add_endpoint(node_id, 1 - node_id, std::move(cfg));
  }
  llp::Endpoint& add_endpoint(WorkerCore& wc, int node_id,
                              std::optional<llp::EndpointConfig> cfg = {}) {
    return add_endpoint(wc, node_id, 1 - node_id, std::move(cfg));
  }
};

}  // namespace bb::scenario
