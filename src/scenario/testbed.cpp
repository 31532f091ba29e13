#include "scenario/testbed.hpp"

#include "common/assert.hpp"

namespace bb::scenario {

Testbed::Node::Node(sim::Simulator& sim, net::Fabric& fabric,
                    const SystemConfig& cfg, int id, pcie::Analyzer* tap)
    : core(sim, cfg.cpu, id == 0 ? "core0" : "core1"),
      profiler(core),
      host(),
      // Each node gets a private fault stream derived from the system
      // seed and the node id, so two-node runs stay deterministic and the
      // nodes' fault sequences are decorrelated.
      injector(cfg.fault, cfg.seed + 0x9E3779B9u * (id + 1u)),
      link(sim, cfg.link, tap, cfg.fault.link_enabled() ? &injector : nullptr),
      rc(sim, link, cfg.rc),
      nic(sim, link, fabric, id, cfg.nic, host),
      worker(core, host, cfg.llp_worker),
      cq_interrupt(sim) {
  worker.set_profiler(&profiler);
  if (cfg.fault.enabled()) {
    nic.set_fault_stats(&injector.stats());
    worker.set_fault_stats(&injector.stats());
  }
  host.set_commit_hook([this] { cq_interrupt.fire(); });
  rc.set_write_notice([this] { host.note_write_scheduled(); });
  rc.set_memory_sink([this](const pcie::Tlp& tlp, TimePs visible_at) {
    if (tlp.poisoned) ++injector.stats().poisoned_delivered;
    host.commit_write(tlp, visible_at);
  });
  rc.set_read_provider([this](const pcie::ReadRequest& req) {
    return host.serve_read(req);
  });
}

Testbed::Testbed(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      sim_(cfg_.seed),
      // The wire fault stream is a pure labelled fork of the system seed,
      // so loss patterns are bit-identical serial vs `exec --jobs N`.
      wire_injector_(cfg_.fault.wire, derive_seed(cfg_.seed, 0x57B1FAB5ull)),
      fabric_(sim_, cfg_.net, /*node_count=*/2,
              cfg_.fault.wire.enabled() ? &wire_injector_ : nullptr) {
  nodes_[0] = std::make_unique<Node>(sim_, fabric_, cfg_, 0, &analyzer_);
  nodes_[1] = std::make_unique<Node>(sim_, fabric_, cfg_, 1, nullptr);
}

Testbed::Node& Testbed::node(int i) {
  BB_ASSERT(i == 0 || i == 1);
  return *nodes_[i];
}

fault::FaultStats Testbed::fault_stats() const {
  fault::FaultStats merged = nodes_[0]->injector.stats();
  merged.merge(nodes_[1]->injector.stats());
  return merged;
}

std::string Testbed::fault_report() const {
  return fault_stats().render("Fault report: " + cfg_.name);
}

void Testbed::publish_fault_counters() {
  const fault::FaultStats s = fault_stats();
  prof::Profiler& p = nodes_[0]->profiler;
  p.note_count("fault.tlps_corrupted", s.tlps_corrupted);
  p.note_count("fault.tlps_dropped", s.tlps_dropped);
  p.note_count("fault.acks_dropped", s.acks_dropped);
  p.note_count("fault.updatefc_dropped", s.updatefc_dropped);
  p.note_count("fault.naks_sent", s.naks_sent);
  p.note_count("fault.replays", s.replays);
  p.note_count("fault.replay_timeouts", s.replay_timeouts);
  p.note_count("fault.duplicates_dropped", s.duplicates_dropped);
  p.note_count("fault.fc_reemissions", s.fc_reemissions);
  p.note_count("fault.poisoned_tlps", s.poisoned_tlps);
  p.note_count("fault.poisoned_delivered", s.poisoned_delivered);
  p.note_count("fault.error_cqes", s.error_cqes);
  p.note_count("fault.read_retries", s.read_retries);
  p.note_count("fault.busy_post_retries", s.busy_post_retries);
}

net::TransportStats Testbed::net_stats() const {
  net::TransportStats merged = fabric_.stats();
  merged.merge(nodes_[0]->nic.transport_stats());
  merged.merge(nodes_[1]->nic.transport_stats());
  return merged;
}

std::string Testbed::net_report() const {
  return net_stats().render("Transport report: " + cfg_.name);
}

void Testbed::publish_net_counters() {
  const net::TransportStats s = net_stats();
  prof::Profiler& p = nodes_[0]->profiler;
  p.note_count("net.packets_sent", s.packets_sent);
  p.note_count("net.packets_delivered", s.packets_delivered);
  p.note_count("net.packets_dropped", s.packets_dropped);
  p.note_count("net.packets_corrupted", s.packets_corrupted);
  p.note_count("net.packets_duplicated", s.packets_duplicated);
  p.note_count("net.packets_reordered", s.packets_reordered);
  p.note_count("net.retransmits", s.retransmits);
  p.note_count("net.acks_sent", s.acks_sent);
  p.note_count("net.acks_received", s.acks_received);
  p.note_count("net.naks_sent", s.naks_sent);
  p.note_count("net.naks_received", s.naks_received);
  p.note_count("net.rnr_naks_sent", s.rnr_naks_sent);
  p.note_count("net.rnr_naks_received", s.rnr_naks_received);
  p.note_count("net.duplicates_discarded", s.duplicates_discarded);
  p.note_count("net.retry_timer_firings", s.retry_timer_firings);
  p.note_count("net.qp_errors", s.qp_errors);
  p.note_count("net.qp_recoveries", s.qp_recoveries);
  p.note_count("net.flushed_wqes", s.flushed_wqes);
}

llp::Endpoint& Testbed::add_endpoint(int node_id,
                                     std::optional<llp::EndpointConfig> cfg) {
  Node& n = node(node_id);
  endpoints_.emplace_back(n.worker, n.rc, cfg.value_or(cfg_.endpoint),
                          &n.nic);
  return endpoints_.back();
}

llp::Endpoint& Testbed::add_endpoint(WorkerCore& wc, int node_id,
                                     std::optional<llp::EndpointConfig> cfg) {
  llp::EndpointConfig c = cfg.value_or(cfg_.endpoint);
  c.qp = next_qp_++;
  endpoints_.emplace_back(wc.worker, node(node_id).rc, c, &node(node_id).nic);
  return endpoints_.back();
}

Testbed::WorkerCore& Testbed::add_core(int node_id) {
  Node& n = node(node_id);
  const auto idx = extra_cores_.size();
  extra_cores_.emplace_back(
      sim_, cfg_.cpu, n.host, cfg_.llp_worker,
      "core" + std::to_string(node_id) + "-" + std::to_string(idx + 1));
  return extra_cores_.back();
}

}  // namespace bb::scenario
