#pragma once
// Deterministic, seed-driven fault injection for the transport stack.
//
// The paper's breakdown lives on the error-free critical path; this module
// perturbs it in a controlled way so the recovery machinery (data-link
// replay, credit re-emission, error completions) can be exercised and its
// latency cost attributed. Two kinds of faults are modelled:
//
//  * BER-style probabilistic faults: every TLP/DLLP transmission consults
//    the injector, which corrupts or drops it with configured probability.
//  * Scheduled one-shot faults: a specific data-link sequence number on a
//    specific link direction is hit exactly once (or, for kKillTlp, on
//    every retransmission attempt until the sender gives up and forwards
//    the TLP poisoned).
//
// Determinism: the injector owns a private Rng forked off the scenario
// seed, so fault decisions never perturb the simulator's main stream. With
// a default (all-zero) FaultConfig the injector is never consulted, no
// timers are armed, and a run is bit-identical to one without the module
// compiled in -- the property the fault-rate->0 golden test pins down.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace bb::fault {

/// Link direction, mirroring pcie::Direction without depending on it
/// (bb_fault sits below bb_pcie in the module graph).
enum class LinkDir : std::uint8_t {
  kDownstream = 0,  // Root Complex -> NIC
  kUpstream = 1,    // NIC -> Root Complex
};

/// A fault scheduled against one specific packet.
struct OneShot {
  enum class Kind : std::uint8_t {
    kCorruptTlp,   // LCRC failure at the receiver -> Nak + replay
    kDropTlp,      // TLP vanishes on the wire -> replay-timer recovery
    kDropAck,      // the Nth Ack/Nak DLLP in `dir` is lost
    kDropUpdateFC, // the Nth UpdateFC DLLP in `dir` is lost
    kKillTlp,      // corrupt *every* attempt of this TLP: forces the
                   // replay budget to exhaust and the TLP to be forwarded
                   // poisoned (-> error CQE)
  };
  Kind kind = Kind::kCorruptTlp;
  LinkDir dir = LinkDir::kDownstream;
  /// For TLP kinds: the data-link sequence number (1-based, per
  /// direction). For DLLP kinds: the Nth DLLP of that class (1-based).
  std::uint64_t seq = 0;
};

/// A fault scheduled against one specific fabric packet (wire level, as
/// opposed to the PCIe data-link OneShot above). Data packets are matched
/// by PSN; control (ACK/NAK/connect) packets by per-source ordinal.
struct WireOneShot {
  enum class Kind : std::uint8_t {
    kDropData,      // one data packet vanishes -> NAK/retry-timer recovery
    kKillData,      // drop *every* attempt of this PSN: forces the retry
                    // budget to exhaust and the QP into the error state
    kDropAck,       // the Nth control packet from `src_node` is lost
    kDuplicateData, // one data packet is delivered twice (dup discard)
    kReorderData,   // one data packet is delayed past its successors
  };
  Kind kind = Kind::kDropData;
  /// Source node the packet leaves from; -1 matches any sender.
  int src_node = -1;
  /// For data kinds: the packet sequence number (PSN, 1-based per QP
  /// flow); 0 matches any. For kDropAck: the Nth control packet (1-based).
  std::uint64_t psn = 0;
};

/// Wire-level (fabric) fault knobs: the lossy-network model the RC
/// transport in the NIC recovers from (docs/TRANSPORT.md). Nested inside
/// FaultConfig so one overlay composes PCIe-link and wire faults.
struct WireFaultConfig {
  /// Per-packet silent-loss probability (NAK or retry timer recovers).
  double drop_prob = 0.0;
  /// Per-packet ICRC-corruption probability. Corrupt packets occupy the
  /// wire and arrive, but the receiving NIC discards them silently (IB
  /// semantics: no NAK for a bad ICRC) -- recovery is via PSN gap/timer.
  double corrupt_prob = 0.0;
  /// A kReorderData packet is delayed by this and exempted from the
  /// sender's in-order gate, so successors can overtake it (receiver
  /// NAKs the PSN gap).
  double reorder_delay_ns = 500.0;
  /// Scheduled one-shot wire faults (consumed in match order).
  std::vector<WireOneShot> scheduled;

  bool enabled() const {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || !scheduled.empty();
  }
};

/// All fault-injection and recovery knobs. Lives in scenario::SystemConfig
/// and is applied per node; `enabled()` false means the stack runs the
/// original error-free fast path untouched.
struct FaultConfig {
  // --- injection ---------------------------------------------------------
  /// Per-TLP LCRC-corruption probability (receiver Naks the TLP).
  double tlp_corrupt_prob = 0.0;
  /// Per-TLP loss probability (no arrival; replay timer recovers).
  double tlp_drop_prob = 0.0;
  /// Per-Ack/Nak-DLLP loss probability.
  double ack_drop_prob = 0.0;
  /// Per-UpdateFC-DLLP loss probability (credit-timeout re-emission
  /// recovers).
  double updatefc_drop_prob = 0.0;
  /// Scheduled one-shot faults (consumed in match order).
  std::vector<OneShot> scheduled;

  // --- recovery ----------------------------------------------------------
  /// REPLAY_TIMER: unacknowledged TLPs older than this are retransmitted.
  double replay_timeout_ns = 3000.0;
  /// Retransmission budget per TLP; past it the TLP is forwarded poisoned
  /// (error-forwarding, the EP-bit model) and surfaced as an error CQE.
  int max_replays = 4;
  /// Lost UpdateFC DLLPs are re-emitted after this timeout (cumulative
  /// credit counters make re-emission idempotent).
  double fc_reemit_timeout_ns = 2000.0;

  // --- wire (fabric) faults ----------------------------------------------
  /// Lossy-network faults on net::Fabric packets; the NIC's RC transport
  /// (PSN/ACK/NAK/retry, docs/TRANSPORT.md) recovers from these.
  WireFaultConfig wire;

  /// PCIe data-link faults configured (gates the per-link FaultInjector).
  bool link_enabled() const {
    return tlp_corrupt_prob > 0.0 || tlp_drop_prob > 0.0 ||
           ack_drop_prob > 0.0 || updatefc_drop_prob > 0.0 ||
           !scheduled.empty();
  }
  /// Any fault source configured, at either layer.
  bool enabled() const { return link_enabled() || wire.enabled(); }
};

/// Flat counters for everything injected and everything recovered; merged
/// across components/nodes for the conservation checks in
/// bench_ablation_faults (every injected fault must be matched by a
/// recovery path).
struct FaultStats {
  // Injected.
  std::uint64_t tlps_corrupted = 0;
  std::uint64_t tlps_dropped = 0;
  std::uint64_t acks_dropped = 0;
  std::uint64_t updatefc_dropped = 0;
  // Recovery activity.
  std::uint64_t naks_sent = 0;
  std::uint64_t replays = 0;
  std::uint64_t replay_timeouts = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t fc_reemissions = 0;
  // Terminal outcomes.
  std::uint64_t poisoned_tlps = 0;      // gave up replaying, forwarded EP
  std::uint64_t poisoned_delivered = 0; // poisoned writes reaching host memory
  std::uint64_t error_cqes = 0;         // completions-with-error generated
  std::uint64_t read_retries = 0;       // NIC DMA reads reissued

  std::uint64_t injected() const {
    return tlps_corrupted + tlps_dropped + acks_dropped + updatefc_dropped;
  }
  std::uint64_t recovered() const {
    return replays + fc_reemissions + error_cqes;
  }

  void merge(const FaultStats& o);
  /// Two-column table for reports (bb::prof attaches this to its output).
  std::string render(const std::string& title = "Fault stats") const;
};

/// Every FaultStats counter with its field name: merge() sums them, and
/// scenario::Cluster publishes them as `fault.<name>` profiler counters.
inline constexpr std::pair<const char*, std::uint64_t FaultStats::*>
    kFaultStatsFields[] = {
        {"tlps_corrupted", &FaultStats::tlps_corrupted},
        {"tlps_dropped", &FaultStats::tlps_dropped},
        {"acks_dropped", &FaultStats::acks_dropped},
        {"updatefc_dropped", &FaultStats::updatefc_dropped},
        {"naks_sent", &FaultStats::naks_sent},
        {"replays", &FaultStats::replays},
        {"replay_timeouts", &FaultStats::replay_timeouts},
        {"duplicates_dropped", &FaultStats::duplicates_dropped},
        {"fc_reemissions", &FaultStats::fc_reemissions},
        {"poisoned_tlps", &FaultStats::poisoned_tlps},
        {"poisoned_delivered", &FaultStats::poisoned_delivered},
        {"error_cqes", &FaultStats::error_cqes},
        {"read_retries", &FaultStats::read_retries},
};

/// Per-link fault decision source. One injector serves both directions of
/// one pcie::Link; its Rng stream is independent of the simulator's.
class FaultInjector {
 public:
  /// Disabled injector (never consulted).
  FaultInjector() = default;
  FaultInjector(FaultConfig cfg, std::uint64_t seed);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return cfg_; }

  enum class TlpFate : std::uint8_t { kDeliver, kCorrupt, kDrop };
  /// Fate of transmission attempt `attempt` (0 = first) of TLP `seq`.
  TlpFate tlp_fate(LinkDir dir, std::uint64_t seq, int attempt);
  /// Whether the next Ack/Nak DLLP in `dir` is lost.
  bool drop_ack(LinkDir dir);
  /// Whether the next UpdateFC DLLP in `dir` is lost.
  bool drop_updatefc(LinkDir dir);

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  bool take_scheduled(OneShot::Kind kind, LinkDir dir, std::uint64_t seq);
  bool has_scheduled(OneShot::Kind kind, LinkDir dir,
                     std::uint64_t seq) const;

  FaultConfig cfg_;
  Rng rng_;
  bool enabled_ = false;
  FaultStats stats_;
  /// Live scheduled faults (one-shots are removed once they fire).
  std::vector<OneShot> pending_;
  /// DLLP ordinal counters per direction, for scheduled DLLP faults.
  std::uint64_t acks_seen_[2] = {0, 0};
  std::uint64_t fcs_seen_[2] = {0, 0};
};

/// Wire-level fault decision source for one net::Fabric. Like the per-link
/// FaultInjector it only *decides* packet fates -- the fabric does the
/// counting (net::TransportStats) so decisions and accounting cannot
/// drift. Seed-forked off the scenario seed with a wire-specific label so
/// loss patterns are pure functions of (seed, packet order): bit-identical
/// serial vs `exec --jobs N`.
class WireInjector {
 public:
  /// Disabled injector (never consulted).
  WireInjector() = default;
  WireInjector(WireFaultConfig cfg, std::uint64_t seed);

  bool enabled() const { return enabled_; }
  const WireFaultConfig& config() const { return cfg_; }

  enum class Fate : std::uint8_t {
    kDeliver,
    kDrop,       // never arrives
    kCorrupt,    // arrives, receiver discards on ICRC (silent)
    kDuplicate,  // delivered twice
    kReorder,    // delayed past the in-order gate
  };
  /// Fate of one fabric transmission. `is_data` selects the data-packet
  /// fault classes; control packets only see kDropAck and drop_prob.
  /// `psn` is the data packet's sequence number for scheduled matching.
  Fate packet_fate(int src_node, bool is_data, std::uint64_t psn);

 private:
  bool take_scheduled(WireOneShot::Kind kind, int src_node,
                      std::uint64_t psn);
  bool has_scheduled(WireOneShot::Kind kind, int src_node,
                     std::uint64_t psn) const;

  WireFaultConfig cfg_;
  Rng rng_;
  bool enabled_ = false;
  /// Live scheduled faults (one-shots are removed once they fire).
  std::vector<WireOneShot> pending_;
  /// Control-packet ordinal per source node, for scheduled kDropAck.
  std::map<int, std::uint64_t> ctrl_seen_;
};

}  // namespace bb::fault
