#pragma once
// The PCIe link between the Root Complex (endpoint A) and the NIC
// (endpoint B), with the analyzer tap sitting "just before the NIC"
// (paper §3, Fig. 3).
//
// Timing model: a packet leaving an endpoint occupies the transmitter for
// a serialization gap (back-to-back throughput limit) and arrives after a
// size-dependent latency. Posted-write ordering is preserved per
// direction. The data-link layer is modelled by per-TLP Ack DLLPs
// generated at the receiving end.
//
// Data-link reliability: with a fault injector attached, every transmitted
// TLP is also held in a per-direction replay buffer until acknowledged.
// The receiver tracks the expected sequence number; a corrupt or
// out-of-sequence TLP is discarded and Nak'd, a duplicate is discarded and
// re-Ack'd, and the sender replays unacknowledged TLPs on Nak reception or
// REPLAY_TIMER expiry. A TLP that exhausts its replay budget is forwarded
// *poisoned* (error forwarding, the EP-bit model) so upper layers can
// surface an error completion instead of hanging. Lost UpdateFC DLLPs are
// re-emitted after a credit timeout; cumulative credit counters make the
// re-emission idempotent. Without an injector (or with a disabled one)
// none of this machinery runs and the link is bit-identical to the
// error-free model.
//
// Flow control (§2, §4.2: "the RC can generate transactions only if it
// has credits"): each direction holds its sender's credits. Endpoints
// post() MWr/MRd TLPs; a post with credits is transmitted in place, in the
// posting event, and one without joins the direction's queue. The
// receiver hands credits back with release_credits(), which sends an
// UpdateFC carrying cumulative totals. Its arrival refills the sender's
// credits here and, inside that arrival event, issues the queued TLPs
// they now cover: endpoints never see DLLPs, and the link runs no
// process of its own.
//
// Elided DLLPs (docs/SIM_ENGINE.md "Elided events"): a DLLP gets an event
// only when something observes it at that instant -- a fault injector,
// an enabled analyzer, or a queued post waiting for the credits an
// UpdateFC returns. Otherwise a fault-free Ack's processing delay becomes
// a pending departure, settled into the transmitter before its next
// packet, and its arrival is no event at all; an UpdateFC's arrival goes
// into a per-direction ledger that issue() settles before each credit
// check and promotes to real events when a post starts to wait. Timing
// is unchanged.
//
// Tap semantics: downstream packets are recorded when they *arrive* at B
// (the analyzer is upstream-adjacent to the NIC); upstream packets are
// recorded when they *depart* B. This is exactly the vantage point the
// paper's measurement methodology relies on.

#include <deque>
#include <functional>

#include "common/units.hpp"
#include "fault/fault.hpp"
#include "pcie/credit.hpp"
#include "pcie/dllp.hpp"
#include "pcie/tlp.hpp"
#include "pcie/trace.hpp"
#include "sim/deferred.hpp"
#include "sim/simulator.hpp"

namespace bb::pcie {

struct LinkParams {
  /// Fixed one-way latency (stack traversal + wire).
  double base_latency_ns = 134.83;
  /// Additional latency per payload byte.
  double per_byte_ns = 0.06;
  /// Transmitter occupancy per byte (Gen3 x8 ~ 8 GB/s => 0.125 ns/B).
  double serialize_ns_per_byte = 0.125;
  /// Receiver processing before the data-link Ack is emitted.
  double ack_processing_ns = 1.0;
  /// Header bytes added to every TLP for serialization purposes.
  std::uint32_t tlp_header_bytes = 24;
  std::uint32_t dllp_bytes = 8;

  TimePs tlp_latency(std::uint32_t payload_bytes) const {
    return TimePs::from_ns(base_latency_ns +
                           per_byte_ns * static_cast<double>(payload_bytes));
  }
  TimePs dllp_latency() const {
    return TimePs::from_ns(base_latency_ns +
                           per_byte_ns * static_cast<double>(dllp_bytes));
  }
  TimePs serialize(std::uint32_t payload_bytes) const {
    return TimePs::from_ns(serialize_ns_per_byte *
                           static_cast<double>(payload_bytes + tlp_header_bytes));
  }

  /// The one-way "PCIe" component the paper's methodology would measure on
  /// this link: half of the (64 B MWr -> Ack DLLP) round trip.
  double measured_pcie_ns() const {
    return (tlp_latency(64).to_ns() + ack_processing_ns +
            dllp_latency().to_ns()) /
           2.0;
  }
};

class Link {
 public:
  /// `down_credits` gates TLPs the Root Complex posts, `up_credits` those
  /// the NIC posts.
  Link(sim::Simulator& sim, LinkParams params, Analyzer* tap = nullptr,
       fault::FaultInjector* injector = nullptr,
       CreditState down_credits = CreditState::default_endpoint(),
       CreditState up_credits = CreditState::default_endpoint());

  const LinkParams& params() const { return params_; }

  // Handlers installed by the endpoints.
  void set_a_tlp_handler(std::function<void(const Tlp&)> h) { a_tlp_ = std::move(h); }
  void set_b_tlp_handler(std::function<void(const Tlp&)> h) { b_tlp_ = std::move(h); }

  /// Issues a TLP in `dir` now if its sender holds the credits and
  /// nothing posted earlier waits; otherwise queues it. Queued TLPs issue
  /// in order, inside the arrival of the UpdateFC that covers them.
  void post(Direction dir, Tlp tlp);
  /// Receiver side: returns the credits an arrived TLP consumed with an
  /// UpdateFC to its sender. Completions travel ungated (send_*) and
  /// release nothing.
  void release_credits(const Tlp& tlp);

  /// Transmits a TLP downstream (A -> B) without a credit check:
  /// completions, and data-link tests. The TLP's `dir` is stamped.
  void send_downstream(Tlp tlp);
  /// Transmits a TLP upstream (B -> A) without a credit check.
  void send_upstream(Tlp tlp);

  /// The credits of the sender posting in `dir`. Mid-run they may lag
  /// UpdateFCs nothing waits for; at the end of a run they are current.
  const CreditState& credits(Direction dir) const {
    return dir_state(dir).credits;
  }
  /// Times a posted TLP in `dir` waited for credits.
  std::uint64_t credit_stalls(Direction dir) const {
    return dir_state(dir).credit_stalls;
  }
  /// Posted TLPs issued in `dir`.
  std::uint64_t issued(Direction dir) const { return dir_state(dir).issued; }

  std::uint64_t tlps_delivered() const { return tlps_delivered_; }
  /// TLPs handed to the transmitter: sent, or posted and issued (each
  /// counted once, however many attempts).
  std::uint64_t tlps_accepted() const { return tlps_accepted_; }
  /// Unacknowledged TLPs currently held for replay (both directions);
  /// zero at quiescence when every loss was recovered.
  std::size_t replay_buffer_depth() const {
    return down_.replay.size() + up_.replay.size();
  }

  fault::FaultInjector* injector() { return injector_; }

 private:
  /// A transmitted-but-unacknowledged TLP held for retransmission.
  struct ReplayEntry {
    Tlp tlp;
    std::uint64_t seq = 0;
    int attempts = 0;  // retransmissions so far
  };

  struct DirState {
    DirState(sim::Simulator& sim, CreditState initial,
             sim::Deferred<Dllp>::Fn depart, sim::Deferred<Dllp>::Fn arrive,
             sim::Timer::Fn replay_timeout, void* link)
        : credits(initial),
          replay_timer(sim, replay_timeout, link),
          acks(sim, depart, link),
          updates(sim, arrive, link) {}

    // Transmitter state for TLPs sent *in* this direction.
    CreditState credits;                  // the sender's credits
    sim::detail::Ring<Tlp, 8> posted;     // posted, waiting for credits
    bool credit_waiter = false;           // `posted` waits for an UpdateFC
    std::uint64_t credit_stalls = 0;
    std::uint64_t issued = 0;
    TimePs next_free = TimePs::zero();    // transmitter availability
    TimePs last_arrival = TimePs::zero(); // ordering enforcement
    std::uint64_t next_seq = 1;           // data-link sequence numbers
    std::deque<ReplayEntry> replay;       // unacknowledged TLPs, seq order
    sim::Timer replay_timer;              // REPLAY_TIMER
    // Receiver state for TLPs arriving from this direction.
    CreditLedger ledger;           // credits released back to the sender
    std::uint64_t expected_seq = 1;
    bool nak_outstanding = false;  // one Nak per recovery window
    // Elided DLLPs travelling in this direction.
    sim::Deferred<Dllp> acks;     // fault-free Acks not yet departed
    sim::Deferred<Dllp> updates;  // UpdateFCs not yet applied
  };

  bool faults_on() const { return injector_ && injector_->enabled(); }
  bool tapped() const { return tap_ && tap_->enabled(); }
  static fault::LinkDir fault_dir(Direction d) {
    return d == Direction::kDownstream ? fault::LinkDir::kDownstream
                                       : fault::LinkDir::kUpstream;
  }
  static Direction opposite(Direction d) {
    return d == Direction::kDownstream ? Direction::kUpstream
                                       : Direction::kDownstream;
  }

  /// Issues `dir`'s posted TLPs in order while credits allow; on the
  /// first that lacks them, waits for the next UpdateFC.
  void issue(Direction dir);
  /// An UpdateFC travelling in `dir` arrived: refill the opposite
  /// direction's sender and issue what it waited for.
  void on_update_fc(Direction dir, const Dllp& fc);
  /// Computes departure/arrival and schedules delivery of one attempt.
  void transmit_attempt(Direction dir, const Tlp& tlp, std::uint64_t seq,
                        int attempt);
  void transmit_tlp(Direction dir, Tlp tlp);
  void transmit_dllp(Direction dir, Dllp d);
  /// Receiver accepted `seq` in order: ack and deliver.
  void deliver(Direction dir, const Tlp& tlp, std::uint64_t seq);
  void send_ack(Direction dir, DllpType type, std::uint64_t seq);
  /// Reserves `st`'s transmitter for one DLLP ready at `at`; returns its
  /// departure.
  TimePs occupy_for_dllp(DirState& st, TimePs at);
  /// Keeps posted order: nothing arrives before its predecessor.
  static TimePs in_order_arrival(DirState& st, TimePs arrive);
  /// Runs an elided DLLP: a pending Ack leaving, an UpdateFC arriving.
  template <Direction D>
  static void depart_elided_ack(void* link, TimePs at, const Dllp& ack);
  template <Direction D>
  static void arrive_elided_update(void* link, TimePs at, const Dllp& fc);
  /// Sender-side processing of an arriving Ack/Nak for direction `dir`'s
  /// replay buffer.
  void on_ack_dllp(Direction dir, const Dllp& d);
  /// Retransmits every entry still in `dir`'s replay buffer.
  void replay_all(Direction dir);
  void arm_replay_timer(Direction dir);
  template <Direction D>
  static void on_replay_timeout(void* link);

  DirState& dir_state(Direction d) {
    return d == Direction::kDownstream ? down_ : up_;
  }
  const DirState& dir_state(Direction d) const {
    return d == Direction::kDownstream ? down_ : up_;
  }

  sim::Simulator& sim_;
  LinkParams params_;
  Analyzer* tap_;
  fault::FaultInjector* injector_;
  DirState down_;
  DirState up_;
  std::function<void(const Tlp&)> a_tlp_, b_tlp_;
  std::uint64_t tlps_delivered_ = 0;
  std::uint64_t tlps_accepted_ = 0;
};

}  // namespace bb::pcie
