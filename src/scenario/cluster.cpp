#include "scenario/cluster.hpp"

#include "common/assert.hpp"

namespace bb::scenario {

Cluster::Node::Node(sim::Simulator& sim, net::Fabric& fabric,
                    const SystemConfig& cfg, int id, pcie::Analyzer* tap)
    : core(sim, cfg.cpu, "core" + std::to_string(id)),
      profiler(core),
      host(),
      // Each node gets a private fault stream derived from the system
      // seed and the node id, so runs stay deterministic and the nodes'
      // fault sequences are decorrelated.
      injector(cfg.fault, cfg.seed + 0x9E3779B9u * (id + 1u)),
      link(sim, cfg.link, tap, cfg.fault.link_enabled() ? &injector : nullptr),
      rc(sim, link, cfg.rc),
      nic(sim, link, fabric, id, cfg.nic, host),
      worker(core, host, profiler, cfg.llp_worker) {
  if (cfg.fault.enabled()) nic.set_fault_stats(&injector.stats());
  rc.set_write_notice([this] { host.note_write_scheduled(); });
  rc.set_memory_sink([this](const pcie::Tlp& tlp, TimePs visible_at) {
    if (tlp.poisoned) ++injector.stats().poisoned_delivered;
    host.commit_write(tlp, visible_at);
  });
  rc.set_read_provider([this](const pcie::ReadRequest& req) {
    return host.serve_read(req);
  });
}

Cluster::Cluster(SystemConfig cfg, int node_count, int analyzer_node)
    : cfg_(std::move(cfg)),
      sim_(cfg_.seed),
      // The wire fault stream is a pure labelled fork of the system seed,
      // so loss patterns are bit-identical serial vs `exec --jobs N`.
      wire_injector_(cfg_.fault.wire, derive_seed(cfg_.seed, 0x57B1FAB5ull)),
      fabric_(sim_, cfg_.net, node_count,
              cfg_.fault.wire.enabled() ? &wire_injector_ : nullptr),
      analyzer_node_(analyzer_node) {
  BB_ASSERT(node_count >= 2);
  BB_ASSERT(analyzer_node >= 0 && analyzer_node < node_count);
  nodes_.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        sim_, fabric_, cfg_, i, i == analyzer_node ? &analyzer_ : nullptr));
  }
}

Cluster::Node& Cluster::node(int i) {
  BB_ASSERT(i >= 0 && i < node_count());
  return *nodes_[static_cast<std::size_t>(i)];
}

llp::Endpoint& Cluster::add_endpoint(int node_id, int peer_node,
                                     std::optional<llp::EndpointConfig> cfg) {
  return make_endpoint(node(node_id).worker, node_id, peer_node,
                       std::move(cfg));
}

llp::Endpoint& Cluster::add_endpoint(WorkerCore& wc, int node_id,
                                     int peer_node,
                                     std::optional<llp::EndpointConfig> cfg) {
  return make_endpoint(wc.worker, node_id, peer_node, std::move(cfg));
}

llp::Endpoint& Cluster::make_endpoint(llp::Worker& worker, int node_id,
                                      int peer_node,
                                      std::optional<llp::EndpointConfig> cfg) {
  BB_ASSERT(peer_node >= 0 && peer_node < node_count() &&
            peer_node != node_id);
  Node& n = node(node_id);
  endpoints_.emplace_back(worker, n.rc, n.nic, next_qp_++, peer_node,
                          cfg.value_or(cfg_.endpoint));
  return endpoints_.back();
}

Cluster::WorkerCore& Cluster::add_core(int node_id) {
  Node& n = node(node_id);
  n.extra_cores.emplace_back(sim_, cfg_.cpu, n.host, cfg_.llp_worker,
                             "core" + std::to_string(node_id) + "-" +
                                 std::to_string(n.extra_cores.size() + 1));
  return n.extra_cores.back();
}

fault::FaultStats Cluster::fault_stats() const {
  fault::FaultStats merged;
  for (const auto& n : nodes_) merged.merge(n->injector.stats());
  return merged;
}

std::string Cluster::fault_report() const {
  return fault_stats().render("Fault report: " + cfg_.name);
}

void Cluster::publish_fault_counters() {
  const fault::FaultStats s = fault_stats();
  for (const auto& [name, field] : fault::kFaultStatsFields) {
    nodes_[0]->profiler.note_count(std::string("fault.") + name, s.*field);
  }
}

net::TransportStats Cluster::net_stats() const {
  net::TransportStats merged = fabric_.stats();
  for (const auto& n : nodes_) merged.merge(n->nic.transport_stats());
  return merged;
}

void Cluster::publish_net_counters() {
  const net::TransportStats s = net_stats();
  for (const auto& [name, field] : net::kTransportStatsFields) {
    nodes_[0]->profiler.note_count(std::string("net.") + name, s.*field);
  }
}

}  // namespace bb::scenario
