#include "net/fabric.hpp"

#include "common/assert.hpp"
#include "common/table.hpp"

namespace bb::net {

void TransportStats::merge(const TransportStats& o) {
  for (const auto& [name, field] : kTransportStatsFields) {
    this->*field += o.*field;
  }
}

std::string TransportStats::render(const std::string& title) const {
  TextTable t({title, "count"});
  auto row = [&](const char* name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  row("Packets sent", packets_sent);
  row("  of which data", data_packets_sent);
  row("Packets delivered", packets_delivered);
  row("Packets dropped", packets_dropped);
  row("Packets corrupted", packets_corrupted);
  row("Packets duplicated", packets_duplicated);
  row("Packets reordered", packets_reordered);
  t.add_rule();
  row("Data retransmits", retransmits);
  row("ACKs sent", acks_sent);
  row("ACKs received", acks_received);
  row("NAKs sent", naks_sent);
  row("NAKs received", naks_received);
  row("RNR NAKs sent", rnr_naks_sent);
  row("RNR NAKs received", rnr_naks_received);
  row("Duplicate PSNs discarded", duplicates_discarded);
  row("Retry-timer expiries", retry_timer_firings);
  t.add_rule();
  row("QP errors", qp_errors);
  row("QP recoveries", qp_recoveries);
  row("WQEs flushed with error", flushed_wqes);
  return t.render();
}

Fabric::Fabric(sim::Simulator& sim, NetParams params, int node_count,
               fault::WireInjector* wire)
    : sim_(sim),
      params_(params),
      wire_(wire),
      acks_(sim, &depart_elided_ack, this) {
  BB_ASSERT(node_count >= 2);
  handlers_.resize(static_cast<std::size_t>(node_count));
  next_free_.resize(static_cast<std::size_t>(node_count));
  last_arrival_.resize(static_cast<std::size_t>(node_count));
  rx_next_free_.resize(static_cast<std::size_t>(node_count));
  sinks_.resize(static_cast<std::size_t>(node_count));
}

void Fabric::attach(int node, Handler h) {
  BB_ASSERT(node >= 0 && node < node_count());
  handlers_[static_cast<std::size_t>(node)] = std::move(h);
}

void Fabric::attach_ack_sink(int node, AckSink sink, void* ctx) {
  BB_ASSERT(node >= 0 && node < node_count());
  sinks_[static_cast<std::size_t>(node)] = Sink{sink, ctx};
}

bool Fabric::defer_ack(TimePs t, std::uint32_t qp, std::uint64_t psn,
                       int src, int dst) {
  BB_ASSERT(src != dst);
  BB_ASSERT(src >= 0 && src < node_count());
  BB_ASSERT(dst >= 0 && dst < node_count());
  // The ledger is a FIFO: an entry earlier than its last one (NICs with
  // different ACK delays) is sent as an event.
  if (wire_ != nullptr || sinks_[static_cast<std::size_t>(dst)].fn == nullptr ||
      t < acks_tail_) {
    return false;
  }
  acks_tail_ = t;
  acks_.push(t, ElidedAck{src, dst, qp, psn});
  return true;
}

TimePs Fabric::occupy(std::size_t src, std::uint32_t payload_bytes,
                      TimePs ready) {
  const TimePs depart = std::max(ready, next_free_[src]);
  next_free_[src] = depart + params_.serialize(payload_bytes);
  return depart + params_.network_latency();
}

TimePs Fabric::through_port(std::size_t dst, std::uint32_t payload_bytes,
                            TimePs arrive) {
  if (params_.model_incast) {
    // Converging flows drain one at a time through the receiver port.
    arrive = std::max(arrive, rx_next_free_[dst]);
    rx_next_free_[dst] = arrive + params_.serialize(payload_bytes);
  }
  return arrive;
}

void Fabric::depart_elided_ack(void* fabric, TimePs t, const ElidedAck& a) {
  // send()'s arithmetic at the entry's time, on a wire that delivers
  // everything; the delivery and its handling are the sink's.
  Fabric& f = *static_cast<Fabric*>(fabric);
  const auto src = static_cast<std::size_t>(a.src);
  const auto dst = static_cast<std::size_t>(a.dst);
  ++f.stats_.packets_sent;
  TimePs arrive = std::max(f.occupy(src, 0, t), f.last_arrival_[src]);
  f.last_arrival_[src] = arrive;
  arrive = f.through_port(dst, 0, arrive);
  ++f.stats_.packets_delivered;
  f.sinks_[dst].fn(f.sinks_[dst].ctx, arrive, a.qp, a.psn);
}

void Fabric::deliver(std::size_t dst, TimePs arrive, NetPacket pkt,
                     bool corrupt) {
  sim_.call_at(arrive, [this, dst, corrupt, pkt = std::move(pkt)] {
    if (corrupt) {
      // The packet occupied the wire but fails the receiver's ICRC check
      // and is discarded without notification (IB semantics); the sender
      // recovers via a later PSN-gap NAK or its retry timer.
      ++stats_.packets_corrupted;
      return;
    }
    ++stats_.packets_delivered;
    BB_ASSERT_MSG(handlers_[dst], "no NIC attached at destination node");
    handlers_[dst](pkt);
  });
}

void Fabric::send(NetPacket pkt) {
  BB_ASSERT(pkt.src_node != pkt.dst_node);
  BB_ASSERT(pkt.src_node >= 0 && pkt.src_node < node_count());
  BB_ASSERT(pkt.dst_node >= 0 && pkt.dst_node < node_count());
  const auto src = static_cast<std::size_t>(pkt.src_node);
  // Elided ACKs that left before this packet hold the transmitter first.
  acks_.settle();
  ++stats_.packets_sent;
  if (pkt.is_data()) ++stats_.data_packets_sent;

  TimePs arrive = occupy(src, pkt.payload_bytes, sim_.now());

  auto fate = fault::WireInjector::Fate::kDeliver;
  if (lossy()) {
    fate = wire_->packet_fate(pkt.src_node, pkt.is_data(), pkt.psn);
  }
  if (fate == fault::WireInjector::Fate::kDrop) {
    // The serialization slot was consumed but nothing arrives, and the
    // in-order gate is NOT advanced: a dropped packet cannot delay its
    // successors' arrival.
    ++stats_.packets_dropped;
    return;
  }
  if (fate == fault::WireInjector::Fate::kReorder) {
    // Exempt from the in-order gate and delayed, so successors overtake.
    ++stats_.packets_reordered;
    arrive = arrive + TimePs::from_ns(wire_->config().reorder_delay_ns);
  } else {
    arrive = std::max(arrive, last_arrival_[src]);  // in-order delivery
    last_arrival_[src] = arrive;
  }

  const auto dst = static_cast<std::size_t>(pkt.dst_node);
  arrive = through_port(dst, pkt.payload_bytes, arrive);
  const bool corrupt = fate == fault::WireInjector::Fate::kCorrupt;
  if (fate == fault::WireInjector::Fate::kDuplicate) {
    // The second copy trails the first by one serialization slot and
    // delivers unconditionally (no re-rolled fate), keeping the
    // conservation identity simple: sent + duplicated == delivered +
    // dropped + corrupted.
    ++stats_.packets_duplicated;
    const TimePs dup_arrive = arrive + params_.serialize(pkt.payload_bytes);
    last_arrival_[src] = dup_arrive;
    deliver(dst, dup_arrive, pkt, /*corrupt=*/false);
  }
  deliver(dst, arrive, std::move(pkt), corrupt);
}

}  // namespace bb::net
