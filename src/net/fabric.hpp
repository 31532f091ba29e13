#pragma once
// The interconnect fabric between two nodes: physical wire plus an
// optional chain of switches.
//
// Timing: every packet incurs the one-way wire latency, one switch latency
// per hop, and a bandwidth-limited serialization gap at the sender. The
// defaults reproduce the paper's measurements: Wire = 274.81 ns for a
// direct NIC-to-NIC connection, Switch = 108 ns per switch (Table 1).
//
// Faults: with a fault::WireInjector attached and enabled, packets can be
// dropped, corrupted (delivered but discarded at the receiver's ICRC
// check), duplicated or reordered (docs/TRANSPORT.md). A dropped packet
// still consumed its sender serialization slot; a corrupt one additionally
// occupies the wire and the receiver port. With the injector absent or
// disabled the delivery path is untouched and runs are bit-identical to a
// fabric built without one.
//
// Elided ACKs (docs/SIM_ENGINE.md "Elided events"): on a fabric with no
// wire injector, an unsignalled RC ACK is observed by nothing between
// the responder's ACK generation and the requester's ACK handling. Its
// departure is a ledger entry at the place its event would have had;
// send() settles the ledger first, so the transmitter and in-order
// state see every ACK in (time, seq) order, and the entry hands the
// ACK's arrival to the destination's sink instead of queueing a
// delivery.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "sim/deferred.hpp"
#include "sim/simulator.hpp"

namespace bb::net {

struct NetParams {
  /// One-way physical-wire latency for a direct connection (incl. SerDes).
  double wire_latency_ns = 274.81;
  /// Store-and-forward latency added by each switch.
  double switch_latency_ns = 108.0;
  /// Number of switches between the nodes (the paper's setup has one).
  int num_switches = 1;
  /// Sender occupancy per payload byte (EDR ~ 12.5 GB/s => 0.08 ns/B).
  double serialize_ns_per_byte = 0.08;
  /// Fixed per-packet framing bytes for serialization purposes.
  std::uint32_t header_bytes = 30;
  /// Model receiver-port occupancy: packets converging on one node
  /// (incast, the many-senders pattern collectives create) queue behind
  /// each other at the destination at the same serialization rate the
  /// sender pays. Off by default -- the two-node testbed cannot incast,
  /// and existing goldens are bit-identical with the knob off.
  bool model_incast = false;

  /// Total one-way fabric latency ("Network" in the paper's terminology).
  TimePs network_latency() const {
    return TimePs::from_ns(wire_latency_ns +
                           switch_latency_ns * static_cast<double>(num_switches));
  }
  TimePs serialize(std::uint32_t payload_bytes) const {
    return TimePs::from_ns(serialize_ns_per_byte *
                           static_cast<double>(payload_bytes + header_bytes));
  }
};

/// Counters for the reliable-transport layer: the wire-side half lives in
/// the fabric (packet fates), the protocol-side half in each NIC's RC
/// machine (ACK/NAK/retry activity). Merged per testbed/cluster and
/// exported as `net.*` profiler counters, mirroring `fault.*`.
struct TransportStats {
  // Wire side (fabric). Conservation at quiescence:
  //   sent + duplicated == delivered + dropped + corrupted.
  std::uint64_t packets_sent = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_reordered = 0;
  // Protocol side (NIC RC transport).
  std::uint64_t retransmits = 0;          // data packets re-sent (go-back-N)
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;        // raw ACK packets processed
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t rnr_naks_sent = 0;
  std::uint64_t rnr_naks_received = 0;
  std::uint64_t duplicates_discarded = 0; // stale-PSN data discarded + re-ACKed
  std::uint64_t retry_timer_firings = 0;
  std::uint64_t qp_errors = 0;            // retry/RNR budget exhausted
  std::uint64_t qp_recoveries = 0;        // reconnect handshakes completed
  std::uint64_t flushed_wqes = 0;         // WQEs retired as error CQEs

  void merge(const TransportStats& o);
  /// Two-column table for reports (bb::prof attaches this to its output).
  std::string render(const std::string& title = "Transport stats") const;
};

/// Every TransportStats counter with its field name: merge() sums them,
/// and scenario::Cluster publishes them as `net.<name>` profiler counters.
inline constexpr std::pair<const char*, std::uint64_t TransportStats::*>
    kTransportStatsFields[] = {
        {"packets_sent", &TransportStats::packets_sent},
        {"data_packets_sent", &TransportStats::data_packets_sent},
        {"packets_delivered", &TransportStats::packets_delivered},
        {"packets_dropped", &TransportStats::packets_dropped},
        {"packets_corrupted", &TransportStats::packets_corrupted},
        {"packets_duplicated", &TransportStats::packets_duplicated},
        {"packets_reordered", &TransportStats::packets_reordered},
        {"retransmits", &TransportStats::retransmits},
        {"acks_sent", &TransportStats::acks_sent},
        {"acks_received", &TransportStats::acks_received},
        {"naks_sent", &TransportStats::naks_sent},
        {"naks_received", &TransportStats::naks_received},
        {"rnr_naks_sent", &TransportStats::rnr_naks_sent},
        {"rnr_naks_received", &TransportStats::rnr_naks_received},
        {"duplicates_discarded", &TransportStats::duplicates_discarded},
        {"retry_timer_firings", &TransportStats::retry_timer_firings},
        {"qp_errors", &TransportStats::qp_errors},
        {"qp_recoveries", &TransportStats::qp_recoveries},
        {"flushed_wqes", &TransportStats::flushed_wqes},
};

/// Switched fabric between `node_count` NICs (the paper's testbed has
/// two; multi-rank workloads use more). Serialization and in-order
/// delivery are maintained per sender (reorder faults excepted).
class Fabric {
 public:
  using Handler = std::function<void(const NetPacket&)>;
  /// Takes an elided ACK for `qp` (cumulative `psn`) that arrives at
  /// `arrive`, in place of its delivery event.
  using AckSink = void (*)(void* ctx, TimePs arrive, std::uint32_t qp,
                           std::uint64_t psn);

  Fabric(sim::Simulator& sim, NetParams params, int node_count = 2,
         fault::WireInjector* wire = nullptr);

  void attach(int node, Handler h);
  /// Lets ACKs to `node` be elided; they reach `sink` instead of the
  /// handler. A node whose ACK handling something else observes (a
  /// faulty PCIe link) does not attach one.
  void attach_ack_sink(int node, AckSink sink, void* ctx);
  const NetParams& params() const { return params_; }
  int node_count() const { return static_cast<int>(handlers_.size()); }

  /// Whether wire faults are live. The NIC arms its transport retry
  /// timers only on a lossy fabric: on a reliable wire the NAK/RNR paths
  /// already recover everything and the timer events would perturb the
  /// error-free goldens.
  bool lossy() const { return wire_ != nullptr && wire_->enabled(); }

  /// Transmits a packet from `pkt.src_node` to `pkt.dst_node`.
  void send(NetPacket pkt);
  /// Sends an ACK from `src` to `dst` at `t` (>= now) as an elided event,
  /// at the place a send queued now for `t` would run. False when it must
  /// be a real one: a wire injector, no sink at `dst`, or a departure
  /// earlier than one already in the ledger.
  bool defer_ack(TimePs t, std::uint32_t qp, std::uint64_t psn, int src,
                 int dst);
  /// Runs the elided ACK departures whose place has passed.
  void settle() { acks_.settle(); }

  /// Counts. An elided ACK counts as sent and delivered when its
  /// departure runs, so mid-run they may run ahead of the wire; at the
  /// end of a run they are exact.
  std::uint64_t packets_delivered() const { return stats_.packets_delivered; }
  const TransportStats& stats() const { return stats_; }

 private:
  /// An elided ACK's departure.
  struct ElidedAck {
    int src = 0;
    int dst = 0;
    std::uint32_t qp = 0;
    std::uint64_t psn = 0;
  };
  struct Sink {
    AckSink fn = nullptr;
    void* ctx = nullptr;
  };

  void deliver(std::size_t dst, TimePs arrive, NetPacket pkt, bool corrupt);
  /// Reserves `src`'s transmitter for a packet ready at `ready`; returns
  /// its arrival before any ordering.
  TimePs occupy(std::size_t src, std::uint32_t payload_bytes, TimePs ready);
  /// The receiver-port queue (model_incast only).
  TimePs through_port(std::size_t dst, std::uint32_t payload_bytes,
                      TimePs arrive);
  static void depart_elided_ack(void* fabric, TimePs t, const ElidedAck& a);

  sim::Simulator& sim_;
  NetParams params_;
  fault::WireInjector* wire_ = nullptr;
  std::vector<Handler> handlers_;
  // Per-sender transmitter state for serialization and ordering.
  std::vector<TimePs> next_free_;
  std::vector<TimePs> last_arrival_;
  // Per-receiver port occupancy (only advanced when model_incast is on).
  std::vector<TimePs> rx_next_free_;
  TransportStats stats_;
  std::vector<Sink> sinks_;
  /// Elided ACK departures, and the latest one pushed.
  sim::Deferred<ElidedAck> acks_;
  TimePs acks_tail_ = TimePs::zero();
};

}  // namespace bb::net
