#pragma once
// The machine builder: N nodes, each with a CPU core, host memory, a PCIe
// link + Root Complex, and a NIC; the NICs are connected by the
// interconnect fabric, which routes by destination; a passive PCIe
// analyzer taps one node's link (node 0 unless the constructor places it
// elsewhere). The two-node testbed of §3 (Fig. 3) is Cluster(cfg, 2).

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "fault/fault.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "nic/queues.hpp"
#include "pcie/link.hpp"
#include "pcie/root_complex.hpp"
#include "pcie/trace.hpp"
#include "prof/profiler.hpp"
#include "scenario/config.hpp"
#include "sim/simulator.hpp"

namespace bb::scenario {

class Cluster {
 public:
  /// An additional CPU core with its own LLP worker on a node -- the
  /// fine-grained multi-core scenario the paper's introduction motivates
  /// (every core communicating independently through the shared NIC).
  struct WorkerCore {
    cpu::Core core;
    prof::Profiler profiler;
    llp::Worker worker;
    WorkerCore(sim::Simulator& sim, const cpu::CpuCostModel& m,
               nic::HostMemory& host, const llp::WorkerConfig& wc,
               std::string name)
        : core(sim, m, std::move(name)),
          profiler(core),
          worker(core, host, profiler, wc) {}
  };

  struct Node {
    Node(sim::Simulator& sim, net::Fabric& fabric, const SystemConfig& cfg,
         int id, pcie::Analyzer* tap);

    cpu::Core core;
    prof::Profiler profiler;
    nic::HostMemory host;
    /// Per-node fault injector (inert when cfg.fault is disabled); must
    /// precede `link`, which captures it at construction.
    fault::FaultInjector injector;
    pcie::Link link;
    pcie::RootComplex rc;
    nic::Nic nic;
    llp::Worker worker;
    /// Extra cores added by Cluster::add_core, sharing this node's NIC.
    std::deque<WorkerCore> extra_cores;
  };

  /// `analyzer_node` places the passive PCIe tap: any node's link may be
  /// observed, not just the initiator's (the paper moves the analyzer to
  /// whichever side the experiment studies).
  Cluster(SystemConfig cfg, int node_count, int analyzer_node = 0);

  sim::Simulator& sim() { return sim_; }
  const SystemConfig& config() const { return cfg_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i);
  pcie::Analyzer& analyzer() { return analyzer_; }
  int analyzer_node() const { return analyzer_node_; }

  /// An endpoint on `node_id`'s worker targeting `peer_node`, on a fresh
  /// QP, using the config template (optionally overridden). Returned
  /// reference is stable.
  llp::Endpoint& add_endpoint(int node_id, int peer_node,
                              std::optional<llp::EndpointConfig> cfg = {});
  /// An extra core on `node_id`, named "core<node>-<k>" for its k-th.
  WorkerCore& add_core(int node_id);
  /// An endpoint driven by an extra core's worker, on a fresh QP.
  llp::Endpoint& add_endpoint(WorkerCore& wc, int node_id, int peer_node,
                              std::optional<llp::EndpointConfig> cfg = {});

  /// Merged fault/recovery accounting across every node's injector.
  fault::FaultStats fault_stats() const;
  /// Rendered fault report (empty table when injection is disabled).
  std::string fault_report() const;
  /// Exports the merged fault stats as `fault.*` counters on node 0's
  /// profiler, so `profiler.report()` shows them next to timing regions.
  void publish_fault_counters();

  /// Merged reliable-transport accounting: fabric wire fates + every
  /// node's RC protocol activity (docs/TRANSPORT.md).
  net::TransportStats net_stats() const;
  /// Exports the merged transport stats as `net.*` counters on node 0's
  /// profiler, mirroring publish_fault_counters().
  void publish_net_counters();

 private:
  llp::Endpoint& make_endpoint(llp::Worker& worker, int node_id,
                               int peer_node,
                               std::optional<llp::EndpointConfig> cfg);

  SystemConfig cfg_;
  sim::Simulator sim_;
  /// Wire-level fault source shared by the fabric (inert when
  /// cfg.fault.wire is disabled); must precede `fabric_`, which captures
  /// it at construction.
  fault::WireInjector wire_injector_;
  net::Fabric fabric_;
  pcie::Analyzer analyzer_;
  int analyzer_node_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::deque<llp::Endpoint> endpoints_;
  /// The only source of QP ids, so no two endpoints share a TX CQ.
  std::uint32_t next_qp_ = 1;
};

}  // namespace bb::scenario
