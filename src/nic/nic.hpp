#pragma once
// The behavioural NIC model (ConnectX-4-like, §2).
//
// TX paths:
//  * PIO ("BlueFlame"): the CPU's 64-byte PIO copy arrives as a downstream
//    MWr carrying the full descriptor (and, with inlining, the payload);
//    the NIC injects the message after its processing latency. No DMA
//    reads -- this is why UCX combines PIO with inlining for small
//    messages.
//  * DoorBell + DMA: an 8-byte DoorBell MWr makes the NIC fetch the
//    descriptor with a DMA read (MRd + CplD round trip), then -- unless
//    the payload is inline in the descriptor -- fetch the payload with a
//    second DMA read, and only then inject. Two PCIe round trips on the
//    critical path (§2 steps 1-3).
//
// Completion generation (§2 step 5): the target NIC acknowledges each
// data packet; on ACK reception the initiator NIC DMA-writes a 64-byte
// CQE -- for signalled descriptors immediately, for unsignalled ones
// deferred until the next signalled descriptor retires the whole batch.
//
// RX path: an inbound RDMA write is DMA-written to host memory; an
// inbound send consumes a posted receive and its payload write carries
// the receive completion.
//
// RC transport (docs/TRANSPORT.md): every data packet carries a per-QP
// PSN. The responder acknowledges cumulatively, NAKs sequence gaps
// (go-back-N retransmission), and answers an inbound send with no posted
// receive with an RNR NAK (the requester backs off and retries). On a
// lossy fabric a transport retry timer with exponential backoff
// backstops lost packets and lost ACKs; exhausting the retry count (or
// the RNR retry count) moves the QP to the error state, flushing every
// outstanding WQE as an error CQE. Recovery is the verbs modify-QP ladder:
// qp_reset() then qp_connect(), which re-handshakes the flow with the
// responder and returns the QP to RTS. With wire faults disabled the
// transport bookkeeping is pure state -- no timers are armed and no extra
// events are scheduled, so error-free runs stay bit-identical.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "nic/queues.hpp"
#include "pcie/link.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace bb::nic {

struct NicParams {
  /// NIC processing between descriptor availability and wire injection.
  /// Deliberately *not* part of the paper's analytical model -- it is one
  /// of the real-machine effects that make observed latency exceed the
  /// model slightly (§4.3: model within 5% of observed).
  double tx_proc_ns = 15.0;
  /// Processing of an inbound data packet before the payload DMA write.
  double rx_proc_ns = 15.0;
  /// Generating the link-level ACK for an inbound data packet.
  double ack_gen_ns = 10.0;
  /// Handling an inbound ACK before completion generation.
  double ack_handle_ns = 10.0;
  /// DoorBell decode before the descriptor DMA read (DMA path only).
  double doorbell_proc_ns = 10.0;
};

/// RC queue-pair state (the relevant subset of the verbs ladder).
enum class QpState : std::uint8_t {
  kRts = 0,     // ready to send (the operational state)
  kError,       // retry budget exhausted; WQEs flushed as error CQEs
  kReset,       // after qp_reset(); posts are flushed immediately
  kConnecting,  // qp_connect() issued, handshake in flight
};

std::string to_string(QpState s);

class Nic {
 public:
  /// Modify-QP ladder processing (reset -> init -> RTR -> RTS) before the
  /// reconnect handshake's packet is emitted.
  static constexpr double kQpRecoveryNs = 500.0;

  Nic(sim::Simulator& sim, pcie::Link& link, net::Fabric& fabric,
      int node_id, NicParams params, HostMemory& host);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  int node_id() const { return node_id_; }
  const NicParams& params() const { return params_; }

  /// Posts `n` receive WQEs (send-receive semantics need pre-posted
  /// receives at the target).
  void post_receives(std::uint32_t n) { rq_available_ += n; }
  std::uint32_t rq_available() const { return rq_available_; }

  // RC transport control (docs/TRANSPORT.md).
  /// Current state of `qp`'s requester-side flow (kRts if never used).
  QpState qp_state(std::uint32_t qp) const;
  /// Modify-QP to RESET: flushes every outstanding WQE on `qp` with an
  /// error CQE (status kFlushed) and clears the flow.
  void qp_reset(std::uint32_t qp);
  /// Re-handshake (reset -> init -> RTR -> RTS): after kQpRecoveryNs
  /// a connect packet re-synchronises the responder's expected PSN; on
  /// the connect-ack the QP returns to RTS, sending to `peer_node`.
  void qp_connect(std::uint32_t qp, int peer_node);
  /// Data packets posted but not yet cumulatively ACKed, all QPs.
  std::size_t tx_unacked();

  // Statistics.
  std::uint64_t messages_injected() const { return messages_injected_; }
  std::uint64_t acks_received() {
    settle_acks();
    return acks_received_;
  }
  std::uint64_t cqes_written() const { return cqes_written_; }
  std::uint64_t dma_reads_issued() const { return dma_reads_issued_; }
  std::uint64_t credit_stalls() const {
    return link_.credit_stalls(pcie::Direction::kUpstream);
  }
  std::uint64_t error_cqes() const { return error_cqes_; }
  /// RC-transport counters (protocol side; the fabric holds the wire side).
  const net::TransportStats& transport_stats() {
    settle_acks();
    return tstats_;
  }

  /// Shared fault-stat accumulator (the link's injector owns it); error
  /// completions and DMA-read retries are counted there when set.
  void set_fault_stats(fault::FaultStats* s) { fault_stats_ = s; }

 private:
  // Link-side (downstream from RC).
  void on_downstream_tlp(const pcie::Tlp& tlp);
  // Fabric-side.
  void on_fabric_packet(const net::NetPacket& pkt);

  /// A descriptor reached the NIC (PIO write or descriptor DMA read):
  /// once its payload is here -- inline, or `payload_fetched` -- it is
  /// injected after tx processing; otherwise its payload is fetched by a
  /// DMA read (§2 step 3).
  void descriptor_ready(const pcie::WireMd& md, bool payload_fetched = false);
  /// Injects a ready descriptor onto the fabric.
  void inject(const pcie::WireMd& md);
  /// Outstanding DMA reads by MRd tag. A payload read carries the
  /// descriptor it serves, kept across retries; `attempts` counts
  /// reissues so far.
  struct PendingRead {
    pcie::ReadRequest req;
    pcie::WireMd md;
    int attempts = 0;
  };
  void issue_dma_read(PendingRead pr);
  /// Removes and returns the outstanding read a CplD's tag answers.
  PendingRead take_read(std::uint64_t tag);
  /// Fault recovery: handles a poisoned downstream TLP (error-forwarded
  /// after exhausted link replays).
  void on_poisoned_tlp(const pcie::Tlp& tlp);
  /// Retires `msg_id` (and every unsignalled predecessor on `qp`) with a
  /// completion-with-error.
  void complete_with_error(std::uint32_t qp, std::uint64_t msg_id,
                           common::Status status = common::Status::kIoError);

  // RC transport internals.
  struct TxFlow;
  struct RxFlow;
  void on_data_packet(const net::NetPacket& pkt);
  /// Completion generation for one cumulatively-ACKed message (§2 step 5).
  void complete_message(TxFlow& f, const pcie::WireMd& md);
  /// DMA-writes the CQE that retires `msg_id` and every unsignalled
  /// predecessor on the flow's QP.
  void write_cqe(TxFlow& f, std::uint64_t msg_id, common::Status status);
  /// Completes every unacked message with PSN <= `psn`; returns whether
  /// any was.
  bool retire_through(TxFlow& f, std::uint64_t psn);
  void on_rc_ack(std::uint32_t qp, std::uint64_t psn);
  /// ACK handling proper: retires what `psn` acknowledges on `f`.
  void handle_ack(TxFlow& f, std::uint64_t psn);
  /// Fabric::AckSink: an elided ACK arrives.
  static void take_elided_ack(void* nic, TimePs arrive, std::uint32_t qp,
                              std::uint64_t psn);
  /// Handles every elided ACK due by now (docs/SIM_ENGINE.md "Elided
  /// events"). Called before anything reads or changes TX-flow state.
  void settle_acks();
  void on_rc_nak(std::uint32_t qp, std::uint64_t psn);
  void on_rnr_nak(std::uint32_t qp, std::uint64_t psn);
  void on_connect(const net::NetPacket& pkt);
  void on_connect_ack(std::uint32_t qp);
  /// `qp`'s requester-side flow, created on first use.
  TxFlow& tx_flow(std::uint32_t qp);
  /// Resends every unacked data packet on the flow in PSN order
  /// (go-back-N).
  void retransmit_flow(TxFlow& f);
  /// Arms the transport retry timer (lossy fabric only; no-op otherwise).
  void arm_retry_timer(TxFlow& f);
  /// The flow's timer fired: an RNR backoff, the QP-recovery delay or a
  /// retry timeout ended.
  void on_flow_timer(TxFlow& f);
  /// Moves the flow to the error state, flushing outstanding WQEs: the
  /// head (the WQE whose retries exhausted) retires kIoError, the rest
  /// kFlushed.
  void qp_error(TxFlow& f);
  /// Retires every unacked WQE with an error CQE: the head with `head`,
  /// the rest kFlushed.
  void flush_unacked(TxFlow& f, common::Status head);
  /// Responder-side control send (ACK/NAK/RNR-NAK/connect-ack) after
  /// `delay_ns` of NIC processing.
  void send_ctrl(net::NetPacket::Kind kind, std::uint32_t qp,
                 std::uint64_t psn, int dst, double delay_ns);

  sim::Simulator& sim_;
  pcie::Link& link_;
  net::Fabric& fabric_;
  int node_id_;
  NicParams params_;
  HostMemory& host_;

  /// Requester-side RC flow state, one per QP.
  struct TxEntry {
    std::uint64_t psn = 0;
    pcie::WireMd md;
  };
  struct TxFlow {
    TxFlow(Nic& owner, std::uint32_t qp_num);

    Nic& nic;
    std::uint32_t qp;
    QpState state = QpState::kRts;
    int peer = -1;
    /// Next PSN to assign. Monotonic across reconnects: a fresh
    /// connection continues the PSN space rather than reusing it.
    std::uint64_t next_psn = 1;
    /// Sent-but-not-cumulatively-ACKed packets, PSN order (go-back-N
    /// window).
    sim::detail::Ring<TxEntry, 16> unacked;
    /// Retired-but-unsignalled ops awaiting the next CQE (unsignalled
    /// completion moderation); kept across qp_reset.
    std::uint32_t unsignalled = 0;
    int retry_count = 0;
    int rnr_count = 0;
    /// True while `timer` holds an RNR backoff (suppresses NAK-triggered
    /// retransmits that would just re-trip the RNR).
    bool rnr_wait = false;
    /// Current retry timeout. 0 until the retry timer is armed after a
    /// reset, so a kConnecting flow's timer with 0 here is the
    /// QP-recovery delay, not a lost connect.
    double cur_timeout_ns = 0.0;
    /// The flow's one pending wake-up: a retry timeout, an RNR backoff
    /// or the QP-recovery delay. They never overlap.
    sim::Timer timer;
  };
  /// Responder-side flow state, keyed by (source node, QP).
  struct RxFlow {
    std::uint64_t expected_psn = 1;
    /// One NAK per gap window: cleared when the expected PSN arrives.
    bool nak_outstanding = false;
  };
  std::map<std::uint32_t, TxFlow> tx_flows_;
  std::map<std::pair<int, std::uint32_t>, RxFlow> rx_flows_;
  net::TransportStats tstats_;

  /// Elided ACKs that arrived, each waiting for its handling time: a
  /// min-heap by (time, seq), so FIFO per flow, whose arrivals are
  /// strictly ordered. The Simulator runs them when its queue drains.
  class AckLedger final : public sim::detail::ElidedSource {
   public:
    AckLedger(sim::Simulator& sim, Nic& nic) : nic_(nic) { sim.attach(this); }
    ~AckLedger() override {
      if (sim_) sim_->detach(this);
    }
    AckLedger(const AckLedger&) = delete;
    AckLedger& operator=(const AckLedger&) = delete;

    void push(TimePs t, TxFlow* flow, std::uint64_t psn);
    /// Handles the entries due at or before `now`.
    void settle(TimePs now) {
      while (!heap_.empty() && heap_.front().t_ps <= now.ps()) run_head();
    }

   private:
    struct Entry {
      std::int64_t t_ps;
      std::uint64_t seq;
      TxFlow* flow;
      std::uint64_t psn;
      bool after(const Entry& o) const {
        return t_ps != o.t_ps ? t_ps > o.t_ps : seq > o.seq;
      }
    };
    bool head(std::int64_t& t_ps, std::uint64_t& seq) const override;
    void run_head() override;

    Nic& nic_;
    std::vector<Entry> heap_;
  };
  AckLedger acks_;

  std::map<std::uint64_t, PendingRead> pending_reads_;
  std::uint64_t next_tag_ = 1;

  fault::FaultStats* fault_stats_ = nullptr;

  std::uint32_t rq_available_ = 0;
  std::uint64_t messages_injected_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t cqes_written_ = 0;
  std::uint64_t dma_reads_issued_ = 0;
  std::uint64_t error_cqes_ = 0;
};

}  // namespace bb::nic
