#pragma once
// Data Link Layer Packets (§2): per-TLP acknowledgements and the
// credit-replenishing UpdateFC packets of the flow-control protocol.

#include <cstdint>
#include <string>

namespace bb::pcie {

enum class DllpType : std::uint8_t {
  kAck,       // data-link acknowledgement of a received TLP
  kNak,       // retransmission request (exercised under fault injection:
              // the receiver Naks a corrupt or out-of-sequence TLP and the
              // sender replays from its buffer)
  kUpdateFC,  // credit replenishment
};

enum class CreditClass : std::uint8_t {
  kPosted,     // MWr
  kNonPosted,  // MRd
  kCompletion, // CplD
};

std::string to_string(DllpType t);
std::string to_string(CreditClass c);

struct Dllp {
  DllpType type = DllpType::kAck;
  /// Sequence number of the TLP being acknowledged (kAck/kNak).
  std::uint64_t ack_seq = 0;
  /// Credit class being returned (kUpdateFC).
  CreditClass credit_class = CreditClass::kPosted;
  /// Cumulative credit totals released since link-up (kUpdateFC). Real
  /// PCIe advertises absolute counters, which makes UpdateFC delivery
  /// idempotent: stale or re-emitted packets replenish at most the
  /// difference from what the receiver has already seen. Essential for
  /// loss-tolerant re-emission (docs/FAULTS.md).
  std::uint64_t header_total = 0;
  std::uint64_t data_total = 0;
};

}  // namespace bb::pcie
