#include "pcie/link.hpp"

#include "common/assert.hpp"

namespace bb::pcie {

Link::Link(sim::Simulator& sim, LinkParams params, Analyzer* tap,
           fault::FaultInjector* injector, CreditState down_credits,
           CreditState up_credits)
    : sim_(sim),
      params_(params),
      tap_(tap),
      injector_(injector),
      down_(sim, down_credits, &depart_elided_ack<Direction::kDownstream>,
            &arrive_elided_update<Direction::kDownstream>,
            &on_replay_timeout<Direction::kDownstream>, this),
      up_(sim, up_credits, &depart_elided_ack<Direction::kUpstream>,
          &arrive_elided_update<Direction::kUpstream>,
          &on_replay_timeout<Direction::kUpstream>, this) {}

void Link::send_downstream(Tlp tlp) {
  tlp.dir = Direction::kDownstream;
  transmit_tlp(Direction::kDownstream, std::move(tlp));
}

void Link::send_upstream(Tlp tlp) {
  tlp.dir = Direction::kUpstream;
  transmit_tlp(Direction::kUpstream, std::move(tlp));
}

void Link::post(Direction dir, Tlp tlp) {
  tlp.dir = dir;
  DirState& st = dir_state(dir);
  st.posted.push(std::move(tlp));
  if (!st.credit_waiter) issue(dir);
}

void Link::release_credits(const Tlp& tlp) {
  if (tlp.type == TlpType::kCompletionData) return;
  transmit_dllp(opposite(tlp.dir), dir_state(tlp.dir).ledger.release_for(tlp));
}

void Link::issue(Direction dir) {
  DirState& st = dir_state(dir);
  // This direction's UpdateFCs travel the other way.
  DirState& back = dir_state(opposite(dir));
  // Cleared first: settling an UpdateFC below must not re-enter.
  st.credit_waiter = false;
  while (!st.posted.empty()) {
    // §2: a transaction may be issued only with sufficient credits;
    // otherwise wait for an UpdateFC from the receiver. Elided UpdateFCs
    // that have arrived are applied first; while a post waits, they are
    // events.
    back.updates.settle();
    const Tlp& tlp = st.posted.front();
    if (!st.credits.can_send(tlp)) {
      BB_ASSERT_MSG(st.credits.fits(tlp),
                    "TLP needs more credits than its class's budget");
      ++st.credit_stalls;
      back.updates.promote();  // settled just above
      st.credit_waiter = true;
      return;
    }
    st.credits.consume(tlp);
    ++st.issued;
    transmit_tlp(dir, st.posted.pop());
  }
}

void Link::on_update_fc(Direction dir, const Dllp& fc) {
  const Direction sender = opposite(dir);
  DirState& st = dir_state(sender);
  st.credits.replenish(fc);
  if (st.credit_waiter) issue(sender);
}

void Link::transmit_tlp(Direction dir, Tlp tlp) {
  DirState& st = dir_state(dir);
  const std::uint64_t seq = st.next_seq++;
  ++tlps_accepted_;
  if (faults_on()) {
    // Hold every transmitted TLP until the data-link Ack purges it.
    st.replay.push_back(ReplayEntry{tlp, seq, 0});
    arm_replay_timer(dir);
  }
  transmit_attempt(dir, tlp, seq, 0);
}

void Link::transmit_attempt(Direction dir, const Tlp& tlp, std::uint64_t seq,
                            int attempt) {
  DirState& st = dir_state(dir);
  st.acks.settle();
  const TimePs depart = std::max(sim_.now(), st.next_free);
  st.next_free = depart + params_.serialize(tlp.bytes);

  // Tap: upstream packets pass the tap as they leave the NIC (depart);
  // downstream packets pass it as they arrive at the NIC.
  if (tap_ && dir == Direction::kUpstream) tap_->on_tlp(depart, tlp);

  // Fault injection sits on the wire, after the tap's vantage point.
  // Poisoned retransmissions bypass it: the sender already gave up on
  // clean delivery and error-forwards, so recovery always terminates.
  bool corrupt = false;
  if (faults_on() && !tlp.poisoned) {
    switch (injector_->tlp_fate(fault_dir(dir), seq, attempt)) {
      case fault::FaultInjector::TlpFate::kDeliver:
        break;
      case fault::FaultInjector::TlpFate::kCorrupt:
        corrupt = true;
        break;
      case fault::FaultInjector::TlpFate::kDrop:
        return;  // consumed wire time, but no arrival: the replay timer
                 // (or a later Nak) recovers it
    }
  }

  const TimePs arrive =
      in_order_arrival(st, depart + params_.tlp_latency(tlp.bytes));

  sim_.call_at(arrive,
               [this, dir, tlp, seq, arrive, corrupt]() {
    if (tap_ && dir == Direction::kDownstream) tap_->on_tlp(arrive, tlp);

    if (!faults_on()) {
      // Error-free fast path: accept unconditionally (sequences cannot be
      // disturbed), identical to the pre-fault model bit for bit.
      deliver(dir, tlp, seq);
      return;
    }

    DirState& rx = dir_state(dir);
    if (corrupt) {
      // LCRC failure: discard and request retransmission once per
      // recovery window (further Naks are suppressed until the window
      // closes; the sender's replay timer backstops a lost Nak).
      if (!rx.nak_outstanding) {
        rx.nak_outstanding = true;
        ++injector_->stats().naks_sent;
        send_ack(dir, DllpType::kNak, rx.expected_seq - 1);
      }
      return;
    }
    if (seq < rx.expected_seq) {
      // Duplicate of an already-accepted TLP (a replay raced the Ack):
      // discard and re-acknowledge so the sender can purge it.
      ++injector_->stats().duplicates_dropped;
      send_ack(dir, DllpType::kAck, rx.expected_seq - 1);
      return;
    }
    if (seq > rx.expected_seq) {
      // Sequence gap: a predecessor was lost.
      if (!rx.nak_outstanding) {
        rx.nak_outstanding = true;
        ++injector_->stats().naks_sent;
        send_ack(dir, DllpType::kNak, rx.expected_seq - 1);
      }
      return;
    }
    // In sequence: accept.
    rx.expected_seq = seq + 1;
    rx.nak_outstanding = false;
    deliver(dir, tlp, seq);
  });
}

void Link::deliver(Direction dir, const Tlp& tlp, std::uint64_t seq) {
  ++tlps_delivered_;
  // Data-link acknowledgement from the receiving end.
  send_ack(dir, DllpType::kAck, seq);
  // Deliver to the endpoint.
  if (dir == Direction::kDownstream) {
    if (b_tlp_) b_tlp_(tlp);
  } else {
    if (a_tlp_) a_tlp_(tlp);
  }
}

void Link::send_ack(Direction dir, DllpType type, std::uint64_t seq) {
  Dllp ack;
  ack.type = type;
  ack.ack_seq = seq;
  const Direction back = opposite(dir);
  const TimePs ready = sim_.now() + TimePs::from_ns(params_.ack_processing_ns);
  if (faults_on() || tapped()) {
    sim_.call_at(ready, [this, back, ack] { transmit_dllp(back, ack); });
  } else {
    dir_state(back).acks.push(ready, ack);
  }
}

TimePs Link::occupy_for_dllp(DirState& st, TimePs at) {
  const TimePs depart = std::max(at, st.next_free);
  st.next_free = depart + params_.serialize(params_.dllp_bytes);
  return depart;
}

TimePs Link::in_order_arrival(DirState& st, TimePs arrive) {
  st.last_arrival = std::max(arrive, st.last_arrival);
  return st.last_arrival;
}

template <Direction D>
void Link::depart_elided_ack(void* link, TimePs at, const Dllp&) {
  // Nothing observes a fault-free Ack's arrival: it only holds the
  // transmitter and the posted order behind it.
  Link& l = *static_cast<Link*>(link);
  DirState& st = l.dir_state(D);
  const TimePs depart = l.occupy_for_dllp(st, at);
  l.sim_.note_elided(
      in_order_arrival(st, depart + l.params_.dllp_latency()));
}

template <Direction D>
void Link::arrive_elided_update(void* link, TimePs, const Dllp& fc) {
  static_cast<Link*>(link)->on_update_fc(D, fc);
}

void Link::transmit_dllp(Direction dir, Dllp d) {
  DirState& st = dir_state(dir);
  st.acks.settle();
  const TimePs depart = occupy_for_dllp(st, sim_.now());

  if (tap_ && dir == Direction::kUpstream) tap_->on_dllp(depart, dir, d);

  if (faults_on()) {
    if (d.type == DllpType::kUpdateFC) {
      if (injector_->drop_updatefc(fault_dir(dir))) {
        // Credit-timeout re-emission: the releasing side's cumulative
        // counters make the repeat idempotent, so resending the same
        // DLLP later is always safe (and converges even if the repeat is
        // dropped again). This stands in for PCIe's periodic FC-update
        // timer, which would flood a run-to-completion simulation.
        sim_.call_in(TimePs::from_ns(injector_->config().fc_reemit_timeout_ns),
                     [this, dir, d] {
                       ++injector_->stats().fc_reemissions;
                       transmit_dllp(dir, d);
                     });
        return;
      }
    } else if (injector_->drop_ack(fault_dir(dir))) {
      // A lost Ack/Nak is recovered by the sender's replay timer (the
      // replayed TLP is discarded as a duplicate and re-acknowledged).
      return;
    }
  }

  const TimePs arrive =
      in_order_arrival(st, depart + params_.dllp_latency());

  // Fault-free, the arrival has an observer only in a downstream tap or
  // a post waiting for this UpdateFC's credits.
  if (!faults_on() && !(dir == Direction::kDownstream && tapped()) &&
      !(d.type == DllpType::kUpdateFC &&
        dir_state(opposite(dir)).credit_waiter)) {
    if (d.type == DllpType::kUpdateFC) {
      st.updates.push(arrive, d);
    } else {
      sim_.note_elided(arrive);
    }
    return;
  }

  sim_.call_at(arrive, [this, dir, d, arrive] {
    if (tap_ && dir == Direction::kDownstream) tap_->on_dllp(arrive, dir, d);
    if (d.type == DllpType::kUpdateFC) {
      on_update_fc(dir, d);
    } else if (faults_on()) {
      // An Ack/Nak travelling in `dir` acknowledges TLPs transmitted in
      // the opposite direction: service that replay buffer.
      on_ack_dllp(opposite(dir), d);
    }
  });
}

void Link::on_ack_dllp(Direction dir, const Dllp& d) {
  DirState& st = dir_state(dir);
  while (!st.replay.empty() && st.replay.front().seq <= d.ack_seq) {
    st.replay.pop_front();
  }
  if (d.type == DllpType::kNak) {
    // Go-back-N: everything after the Nak'd sequence is retransmitted in
    // order.
    replay_all(dir);
  }
  // Ack/Nak receipt restarts REPLAY_TIMER.
  st.replay_timer.cancel();
  arm_replay_timer(dir);
}

void Link::replay_all(Direction dir) {
  DirState& st = dir_state(dir);
  for (ReplayEntry& e : st.replay) {
    ++e.attempts;
    if (e.attempts > injector_->config().max_replays && !e.tlp.poisoned) {
      // Replay budget exhausted: error-forward (EP bit). The poisoned
      // attempt bypasses the injector, so it is guaranteed to arrive and
      // be acknowledged; the receiver surfaces an error completion.
      e.tlp.poisoned = true;
      ++injector_->stats().poisoned_tlps;
    }
    ++injector_->stats().replays;
    transmit_attempt(dir, e.tlp, e.seq, e.attempts);
  }
}

void Link::arm_replay_timer(Direction dir) {
  if (!faults_on()) return;
  DirState& st = dir_state(dir);
  if (st.replay_timer.armed() || st.replay.empty()) return;
  st.replay_timer.arm(sim_.now() +
                      TimePs::from_ns(injector_->config().replay_timeout_ns));
}

template <Direction D>
void Link::on_replay_timeout(void* link) {
  // Armed only while the replay buffer holds TLPs; every Ack that purges
  // it restarts the timer.
  Link& l = *static_cast<Link*>(link);
  ++l.injector_->stats().replay_timeouts;
  l.replay_all(D);
  l.arm_replay_timer(D);
}

}  // namespace bb::pcie
