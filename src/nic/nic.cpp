#include "nic/nic.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace bb::nic {

namespace {

// RC transport (docs/TRANSPORT.md).
/// Transport retry timer: time without ACK progress before a go-back-N
/// retransmission. Grows by kRetryBackoff per consecutive expiry up to
/// kRetryTimeoutMaxNs. Armed only when the fabric is lossy.
constexpr double kRetryTimeoutNs = 8000.0;
constexpr double kRetryBackoff = 2.0;
constexpr double kRetryTimeoutMaxNs = 64000.0;
/// Consecutive retry-timer expiries tolerated before the QP errors.
constexpr int kRetryCnt = 7;
/// RNR NAK backoff base; grows by kRnrBackoff per consecutive RNR NAK on
/// the flow.
constexpr double kRnrTimerNs = 1000.0;
constexpr double kRnrBackoff = 2.0;
/// Consecutive RNR NAKs tolerated before the QP errors.
constexpr int kRnrRetryCnt = 7;
/// DMA payload reads reissued after a poisoned completion before the
/// operation is retired with an error CQE.
constexpr int kMaxReadRetries = 2;
/// CQE size (64 bytes on Mellanox InfiniBand).
constexpr std::uint32_t kCqeBytes = 64;

}  // namespace

std::string to_string(QpState s) {
  switch (s) {
    case QpState::kRts:
      return "RTS";
    case QpState::kError:
      return "ERROR";
    case QpState::kReset:
      return "RESET";
    case QpState::kConnecting:
      return "CONNECTING";
  }
  BB_UNREACHABLE("bad QpState");
}

Nic::Nic(sim::Simulator& sim, pcie::Link& link, net::Fabric& fabric,
         int node_id, NicParams params, HostMemory& host)
    : sim_(sim),
      link_(link),
      fabric_(fabric),
      node_id_(node_id),
      params_(params),
      host_(host),
      acks_(sim, *this) {
  link_.set_b_tlp_handler([this](const pcie::Tlp& t) { on_downstream_tlp(t); });
  fabric_.attach(node_id_, [this](const net::NetPacket& p) {
    on_fabric_packet(p);
  });
  // A faulty link can retire ops with error CQEs at any picosecond, and
  // each reads the flow's unsignalled count: ACKs to this node then keep
  // their events.
  if (link_.injector() == nullptr) {
    fabric_.attach_ack_sink(node_id_, &take_elided_ack, this);
  }
}

void Nic::on_downstream_tlp(const pcie::Tlp& tlp) {
  // Return flow-control credits to the Root Complex for every processed
  // downstream TLP (the counterpart of the RC's UpdateFC for upstream
  // traffic). Without this the RC's posted-credit pool drains permanently
  // after ~64 posts and injection stalls.
  link_.release_credits(tlp);
  if (tlp.poisoned) {
    // Error forwarding: the sender exhausted its replay budget. The TLP's
    // content cannot be acted upon; retire the operation it carried with
    // a completion-with-error instead of hanging it (docs/FAULTS.md).
    on_poisoned_tlp(tlp);
    return;
  }
  switch (tlp.type) {
    case pcie::TlpType::kMemWrite: {
      if (const auto* desc =
              std::get_if<pcie::DescriptorWrite>(&tlp.content)) {
        // PIO: the descriptor (and, inlined, its payload) arrived whole.
        descriptor_ready(desc->md);
        return;
      }
      if (const auto* db = std::get_if<pcie::DoorbellWrite>(&tlp.content)) {
        // DMA path: fetch the descriptor from the host ring (§2 step 2).
        PendingRead pr;
        pr.req.what = pcie::ReadRequest::What::kDescriptor;
        pr.req.qp = db->qp;
        pr.req.bytes = 64;
        sim_.call_in(TimePs::from_ns(params_.doorbell_proc_ns),
                     [this, pr] { issue_dma_read(pr); });
        return;
      }
      BB_UNREACHABLE("unexpected downstream MWr content at NIC");
    }
    case pcie::TlpType::kCompletionData: {
      const auto* rc = std::get_if<pcie::ReadCompletion>(&tlp.content);
      BB_ASSERT_MSG(rc != nullptr, "CplD without ReadCompletion content");
      const PendingRead pr = take_read(tlp.tag);
      if (pr.req.what == pcie::ReadRequest::What::kDescriptor) {
        descriptor_ready(rc->md);
      } else {
        descriptor_ready(pr.md, /*payload_fetched=*/true);
      }
      return;
    }
    case pcie::TlpType::kMemRead:
      BB_UNREACHABLE("NIC does not expect downstream MRd");
  }
}

void Nic::on_poisoned_tlp(const pcie::Tlp& tlp) {
  switch (tlp.type) {
    case pcie::TlpType::kMemWrite: {
      if (const auto* desc =
              std::get_if<pcie::DescriptorWrite>(&tlp.content)) {
        // A poisoned PIO descriptor: the post is dead on arrival.
        complete_with_error(desc->md.qp, desc->md.msg_id);
        return;
      }
      if (const auto* db = std::get_if<pcie::DoorbellWrite>(&tlp.content)) {
        // A poisoned DoorBell: consume the staged descriptor it pointed at
        // (keeping ring and doorbell counter in sync) and fail that op.
        auto md = host_.take_staged(db->qp);
        complete_with_error(db->qp, md ? md->msg_id : 0);
        return;
      }
      BB_UNREACHABLE("unexpected poisoned downstream MWr content at NIC");
    }
    case pcie::TlpType::kCompletionData: {
      const auto* rc = std::get_if<pcie::ReadCompletion>(&tlp.content);
      BB_ASSERT_MSG(rc != nullptr, "CplD without ReadCompletion content");
      PendingRead pr = take_read(tlp.tag);
      if (pr.req.what == pcie::ReadRequest::What::kPayload) {
        if (pr.attempts < kMaxReadRetries) {
          // Host-memory payload reads are idempotent: just read again.
          if (fault_stats_) ++fault_stats_->read_retries;
          ++pr.attempts;
          issue_dma_read(pr);
          return;
        }
        // Retries exhausted: fail the descriptor this payload was for.
        complete_with_error(pr.md.qp, pr.md.msg_id);
        return;
      }
      // Descriptor fetch failed. If the host served it, the descriptor
      // left the ring and rides (nominally corrupt) in the completion --
      // usable for error bookkeeping only. If the MRd itself was poisoned
      // the host never served; drop the staged descriptor to stay in sync.
      if (rc->served) {
        complete_with_error(pr.req.qp, rc->md.msg_id);
      } else {
        auto md = host_.take_staged(pr.req.qp);
        complete_with_error(pr.req.qp, md ? md->msg_id : 0);
      }
      return;
    }
    case pcie::TlpType::kMemRead:
      BB_UNREACHABLE("NIC does not expect downstream MRd");
  }
}

void Nic::descriptor_ready(const pcie::WireMd& md, bool payload_fetched) {
  if (md.inline_payload || payload_fetched) {
    sim_.call_in(TimePs::from_ns(params_.tx_proc_ns),
                 [this, md] { inject(md); });
    return;
  }
  // The payload still lives in registered memory: fetch it with a DMA
  // read (§2 step 3) that carries the descriptor until it completes.
  PendingRead pr;
  pr.req.what = pcie::ReadRequest::What::kPayload;
  pr.req.qp = md.qp;
  pr.req.bytes = md.payload_bytes;
  pr.md = md;
  issue_dma_read(pr);
}

void Nic::issue_dma_read(PendingRead pr) {
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemRead;
  tlp.bytes = 0;  // MRd carries no data
  tlp.tag = next_tag_++;
  tlp.content = pr.req;
  pending_reads_[tlp.tag] = pr;
  ++dma_reads_issued_;
  link_.post(pcie::Direction::kUpstream, std::move(tlp));
}

Nic::PendingRead Nic::take_read(std::uint64_t tag) {
  auto it = pending_reads_.find(tag);
  BB_ASSERT_MSG(it != pending_reads_.end(), "CplD for unknown tag");
  const PendingRead pr = it->second;
  pending_reads_.erase(it);
  return pr;
}

void Nic::complete_with_error(std::uint32_t qp, std::uint64_t msg_id,
                              common::Status status) {
  settle_acks();
  ++error_cqes_;
  if (fault_stats_) ++fault_stats_->error_cqes;
  // Retires the failed op plus every unsignalled predecessor on the QP
  // (those did complete; the error status flags the tail op).
  write_cqe(tx_flow(qp), msg_id, status);
}

void Nic::write_cqe(TxFlow& f, std::uint64_t msg_id, common::Status status) {
  pcie::CqeWrite cqe;
  cqe.qp = f.qp;
  cqe.msg_id = msg_id;
  cqe.completes = f.unsignalled + 1;
  cqe.status = status;
  f.unsignalled = 0;
  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = kCqeBytes;
  tlp.content = cqe;
  ++cqes_written_;
  link_.post(pcie::Direction::kUpstream, std::move(tlp));
}

void Nic::inject(const pcie::WireMd& md) {
  settle_acks();
  TxFlow& f = tx_flow(md.qp);
  if (f.state != QpState::kRts) {
    // Posts against a non-RTS QP are flushed immediately with an error
    // CQE (verbs semantics); the op never reaches the wire.
    ++tstats_.flushed_wqes;
    complete_with_error(md.qp, md.msg_id, common::Status::kFlushed);
    return;
  }
  f.peer = md.dst_node;
  const std::uint64_t psn = f.next_psn++;
  f.unacked.push(TxEntry{psn, md});
  ++messages_injected_;
  fabric_.send(net::NetPacket::data(md, node_id_, md.dst_node, psn));
  arm_retry_timer(f);
}

void Nic::send_ctrl(net::NetPacket::Kind kind, std::uint32_t qp,
                    std::uint64_t psn, int dst, double delay_ns) {
  sim_.call_in(TimePs::from_ns(delay_ns), [this, kind, qp, psn, dst] {
    fabric_.send(net::NetPacket::ctrl(kind, qp, psn, node_id_, dst));
  });
}

void Nic::on_fabric_packet(const net::NetPacket& pkt) {
  using Kind = net::NetPacket::Kind;
  switch (pkt.kind) {
    case Kind::kData:
      on_data_packet(pkt);
      return;
    case Kind::kAck:
      sim_.call_in(TimePs::from_ns(params_.ack_handle_ns),
                   [this, qp = pkt.qp, psn = pkt.psn] { on_rc_ack(qp, psn); });
      return;
    case Kind::kNak:
      sim_.call_in(TimePs::from_ns(params_.ack_handle_ns),
                   [this, qp = pkt.qp, psn = pkt.psn] { on_rc_nak(qp, psn); });
      return;
    case Kind::kRnrNak:
      sim_.call_in(TimePs::from_ns(params_.ack_handle_ns),
                   [this, qp = pkt.qp, psn = pkt.psn] { on_rnr_nak(qp, psn); });
      return;
    case Kind::kConnect:
      on_connect(pkt);
      return;
    case Kind::kConnectAck:
      sim_.call_in(TimePs::from_ns(params_.ack_handle_ns),
                   [this, qp = pkt.qp] { on_connect_ack(qp); });
      return;
  }
  BB_UNREACHABLE("bad NetPacket kind");
}

void Nic::on_data_packet(const net::NetPacket& pkt) {
  RxFlow& rf = rx_flows_[{pkt.src_node, pkt.qp}];
  const pcie::WireMd& md = pkt.md;

  if (pkt.psn < rf.expected_psn) {
    // Stale PSN: a duplicate (wire fault or go-back-N overshoot). Discard
    // and re-ACK so the requester can purge its window even if the
    // original ACK was lost.
    ++tstats_.duplicates_discarded;
    ++tstats_.acks_sent;
    send_ctrl(net::NetPacket::Kind::kAck, pkt.qp, rf.expected_psn - 1,
              pkt.src_node, params_.rx_proc_ns + params_.ack_gen_ns);
    return;
  }
  if (pkt.psn > rf.expected_psn) {
    // Sequence gap: a predecessor was lost or overtaken. One NAK per gap
    // window (further out-of-order arrivals are dropped silently until
    // the expected PSN shows up), mirroring the data-link Nak window.
    if (!rf.nak_outstanding) {
      rf.nak_outstanding = true;
      ++tstats_.naks_sent;
      send_ctrl(net::NetPacket::Kind::kNak, pkt.qp, rf.expected_psn,
                pkt.src_node, params_.rx_proc_ns + params_.ack_gen_ns);
    }
    return;
  }

  if (md.op == pcie::WireOp::kSend && rq_available_ == 0) {
    // Receiver not ready: no posted receive for an inbound send. Refuse
    // the PSN (it stays expected) and tell the requester to back off and
    // retry -- the late-posted-receive path, previously a hard error.
    ++tstats_.rnr_naks_sent;
    send_ctrl(net::NetPacket::Kind::kRnrNak, pkt.qp, pkt.psn, pkt.src_node,
              params_.rx_proc_ns + params_.ack_gen_ns);
    return;
  }

  // In-sequence accept.
  rf.expected_psn = pkt.psn + 1;
  rf.nak_outstanding = false;
  if (md.op == pcie::WireOp::kSend) --rq_available_;
  sim_.call_in(TimePs::from_ns(params_.rx_proc_ns),
               [this, md] {
                 pcie::Tlp tlp;
                 tlp.type = pcie::TlpType::kMemWrite;
                 tlp.bytes = md.payload_bytes;
                 pcie::PayloadWrite pw;
                 pw.msg_id = md.msg_id;
                 pw.qp = md.qp;
                 pw.bytes = md.payload_bytes;
                 pw.user_data = md.user_data;
                 pw.op = md.op;
                 tlp.content = pw;
                 link_.post(pcie::Direction::kUpstream, std::move(tlp));
               });
  // §2 step 4: acknowledge to the initiator NIC. The ACK does not wait
  // for the payload's RC-to-MEM commit. Nothing observes an unsignalled
  // op's ACK on its way: the fabric keeps it out of the event queue.
  ++tstats_.acks_sent;
  const double ack_ns = params_.rx_proc_ns + params_.ack_gen_ns;
  if (md.signaled ||
      !fabric_.defer_ack(sim_.now() + TimePs::from_ns(ack_ns), pkt.qp,
                         pkt.psn, node_id_, pkt.src_node)) {
    send_ctrl(net::NetPacket::Kind::kAck, pkt.qp, pkt.psn, pkt.src_node,
              ack_ns);
  }
}

void Nic::complete_message(TxFlow& f, const pcie::WireMd& md) {
  ++acks_received_;
  // Unsignalled-completion moderation: a signalled descriptor's CQE
  // retires every unsignalled op before it on the same QP.
  if (md.signaled) {
    write_cqe(f, md.msg_id, common::Status::kOk);
  } else {
    ++f.unsignalled;
  }
}

bool Nic::retire_through(TxFlow& f, std::uint64_t psn) {
  bool progress = false;
  while (!f.unacked.empty() && f.unacked.front().psn <= psn) {
    const pcie::WireMd md = f.unacked.pop().md;
    progress = true;
    complete_message(f, md);
  }
  return progress;
}

void Nic::on_rc_ack(std::uint32_t qp, std::uint64_t psn) {
  settle_acks();
  handle_ack(tx_flow(qp), psn);
}

void Nic::take_elided_ack(void* nic, TimePs arrive, std::uint32_t qp,
                          std::uint64_t psn) {
  Nic& n = *static_cast<Nic*>(nic);
  n.acks_.push(arrive + TimePs::from_ns(n.params_.ack_handle_ns),
               &n.tx_flow(qp), psn);
}

void Nic::settle_acks() {
  // An ACK handled by now left its responder earlier: its departure
  // runs first, if the fabric has not run it yet.
  fabric_.settle();
  acks_.settle(sim_.now());
}

void Nic::AckLedger::push(TimePs t, TxFlow* flow, std::uint64_t psn) {
  heap_.push_back(Entry{t.ps(), sim_->reserve_seq(), flow, psn});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Entry& a, const Entry& b) { return a.after(b); });
  sim_->note_elided(t);
}

bool Nic::AckLedger::head(std::int64_t& t_ps, std::uint64_t& seq) const {
  if (heap_.empty()) return false;
  t_ps = heap_.front().t_ps;
  seq = heap_.front().seq;
  return true;
}

void Nic::AckLedger::run_head() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const Entry& a, const Entry& b) { return a.after(b); });
  const Entry e = heap_.back();
  heap_.pop_back();
  // An unsignalled ACK on a fault-free fabric only retires its own op
  // and resets counters, which commutes with whatever else runs at its
  // picosecond; a CQE written here would leave at the wrong time.
  const std::uint64_t cqes = nic_.cqes_written_;
  nic_.handle_ack(*e.flow, e.psn);
  BB_ASSERT_MSG(nic_.cqes_written_ == cqes, "an elided ACK wrote a CQE");
}

void Nic::handle_ack(TxFlow& f, std::uint64_t psn) {
  ++tstats_.acks_received;
  if (f.state != QpState::kRts) return;  // stale ACK after error/reset
  if (!retire_through(f, psn)) return;   // duplicate cumulative ACK
  // Forward progress resets the retry budget and backoff (IB semantics:
  // the budgets bound *consecutive* failures).
  f.retry_count = 0;
  f.rnr_count = 0;
  f.rnr_wait = false;
  f.cur_timeout_ns = kRetryTimeoutNs;
  f.timer.cancel();
  arm_retry_timer(f);
}

void Nic::on_rc_nak(std::uint32_t qp, std::uint64_t psn) {
  settle_acks();
  TxFlow& f = tx_flow(qp);
  ++tstats_.naks_received;
  if (f.state != QpState::kRts) return;
  // A NAK for `psn` implicitly ACKs everything before it (PSNs start at 1).
  retire_through(f, psn - 1);
  if (f.rnr_wait) return;  // backoff pending; it will retransmit anyway
  retransmit_flow(f);
  f.timer.cancel();
  arm_retry_timer(f);
}

void Nic::on_rnr_nak(std::uint32_t qp, std::uint64_t psn) {
  settle_acks();
  TxFlow& f = tx_flow(qp);
  ++tstats_.rnr_naks_received;
  if (f.state != QpState::kRts) return;
  // Everything before the refused PSN was accepted.
  retire_through(f, psn - 1);
  if (f.rnr_wait) return;  // one backoff at a time
  ++f.rnr_count;
  if (f.rnr_count > kRnrRetryCnt) {
    qp_error(f);
    return;
  }
  // Back off kRnrTimerNs * kRnrBackoff^(n-1), then go-back-N. The backoff
  // takes the flow's timer, so the retry timeout cannot double-fire.
  const double delay_ns =
      kRnrTimerNs * std::pow(kRnrBackoff, static_cast<double>(f.rnr_count - 1));
  f.rnr_wait = true;
  f.timer.arm(sim_.now() + TimePs::from_ns(delay_ns));
}

Nic::TxFlow::TxFlow(Nic& owner, std::uint32_t qp_num)
    : nic(owner),
      qp(qp_num),
      timer(owner.sim_,
            [](void* flow) {
              TxFlow& f = *static_cast<TxFlow*>(flow);
              f.nic.on_flow_timer(f);
            },
            this) {}

Nic::TxFlow& Nic::tx_flow(std::uint32_t qp) {
  return tx_flows_.try_emplace(qp, *this, qp).first->second;
}

void Nic::retransmit_flow(TxFlow& f) {
  for (std::size_t i = 0; i < f.unacked.size(); ++i) {
    const TxEntry& e = f.unacked[i];
    ++tstats_.retransmits;
    fabric_.send(net::NetPacket::data(e.md, node_id_, f.peer, e.psn));
  }
}

void Nic::arm_retry_timer(TxFlow& f) {
  // On a reliable wire the NAK/RNR paths recover everything; arming the
  // timer would schedule events the error-free goldens don't have.
  if (!fabric_.lossy()) return;
  if (f.timer.armed()) return;  // retry or RNR backoff already pending
  if (f.unacked.empty() && f.state != QpState::kConnecting) return;
  if (f.cur_timeout_ns <= 0.0) f.cur_timeout_ns = kRetryTimeoutNs;
  f.timer.arm(sim_.now() + TimePs::from_ns(f.cur_timeout_ns));
}

void Nic::on_flow_timer(TxFlow& f) {
  settle_acks();
  // qp_reset and qp_error cancel the timer: the flow is in RTS or
  // kConnecting.
  if (f.rnr_wait) {
    // The RNR backoff is over: go back N.
    f.rnr_wait = false;
    retransmit_flow(f);
    arm_retry_timer(f);
    return;
  }
  const bool connecting = f.state == QpState::kConnecting;
  const auto send_connect = [&] {
    fabric_.send(net::NetPacket::ctrl(net::NetPacket::Kind::kConnect, f.qp,
                                      f.next_psn, node_id_, f.peer));
  };
  if (connecting && f.cur_timeout_ns == 0.0) {
    // The modify-QP ladder is done: the connect re-synchronises the
    // responder's expected PSN.
    send_connect();
    arm_retry_timer(f);
    return;
  }
  // A retry timeout: a data packet, or the connect or its ack, was lost.
  ++tstats_.retry_timer_firings;
  ++f.retry_count;
  if (f.retry_count > kRetryCnt) {
    qp_error(f);
    return;
  }
  if (connecting) {
    send_connect();
  } else {
    retransmit_flow(f);
  }
  f.cur_timeout_ns = std::min(f.cur_timeout_ns * kRetryBackoff,
                              kRetryTimeoutMaxNs);
  arm_retry_timer(f);
}

void Nic::qp_error(TxFlow& f) {
  if (f.state == QpState::kError) return;
  f.state = QpState::kError;
  ++tstats_.qp_errors;
  f.timer.cancel();
  f.rnr_wait = false;
  // Flush the send queue: the head WQE is the one whose retries
  // exhausted; everything behind it never got a verdict (verbs-style).
  flush_unacked(f, common::Status::kIoError);
}

void Nic::flush_unacked(TxFlow& f, common::Status head) {
  common::Status st = head;
  while (!f.unacked.empty()) {
    const std::uint64_t msg_id = f.unacked.pop().md.msg_id;
    ++tstats_.flushed_wqes;
    complete_with_error(f.qp, msg_id, st);
    st = common::Status::kFlushed;
  }
}

QpState Nic::qp_state(std::uint32_t qp) const {
  const auto it = tx_flows_.find(qp);
  return it == tx_flows_.end() ? QpState::kRts : it->second.state;
}

std::size_t Nic::tx_unacked() {
  settle_acks();
  std::size_t n = 0;
  for (const auto& [qp, f] : tx_flows_) n += f.unacked.size();
  return n;
}

void Nic::qp_reset(std::uint32_t qp) {
  settle_acks();
  TxFlow& f = tx_flow(qp);
  f.timer.cancel();
  flush_unacked(f, common::Status::kFlushed);
  f.state = QpState::kReset;
  f.retry_count = 0;
  f.rnr_count = 0;
  f.rnr_wait = false;
  f.cur_timeout_ns = 0.0;
  // next_psn is NOT reset: the reconnect handshake hands the responder a
  // fresh starting PSN, so a scheduled kKillData on an old PSN cannot
  // re-kill the recovered flow.
}

void Nic::qp_connect(std::uint32_t qp, int peer_node) {
  settle_acks();
  TxFlow& f = tx_flow(qp);
  BB_ASSERT_MSG(f.state == QpState::kReset,
                "qp_connect requires a RESET QP (call qp_reset first)");
  f.peer = peer_node;
  f.state = QpState::kConnecting;
  // The modify-QP ladder (reset -> init -> RTR -> RTS on both ends)
  // costs kQpRecoveryNs of driver/firmware work before the connect
  // packet goes out (on_flow_timer).
  f.timer.arm(sim_.now() + TimePs::from_ns(kQpRecoveryNs));
}

void Nic::on_connect(const net::NetPacket& pkt) {
  // Responder side of the re-handshake: restart the flow at the PSN the
  // requester announces. Idempotent -- a duplicated/retried connect just
  // re-applies the same state and earns another connect-ack.
  RxFlow& rf = rx_flows_[{pkt.src_node, pkt.qp}];
  rf = RxFlow{};
  rf.expected_psn = pkt.psn;
  send_ctrl(net::NetPacket::Kind::kConnectAck, pkt.qp, pkt.psn, pkt.src_node,
            params_.rx_proc_ns);
}

void Nic::on_connect_ack(std::uint32_t qp) {
  settle_acks();
  TxFlow& f = tx_flow(qp);
  if (f.state != QpState::kConnecting) return;  // duplicate connect-ack
  f.state = QpState::kRts;
  f.retry_count = 0;
  f.rnr_count = 0;
  f.rnr_wait = false;
  f.cur_timeout_ns = kRetryTimeoutNs;
  f.timer.cancel();
  ++tstats_.qp_recoveries;
}

}  // namespace bb::nic
