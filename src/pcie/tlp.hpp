#pragma once
// Transaction Layer Packets.
//
// Two TLP types matter on the critical path (§2): Memory Write (MWr) --
// posted, no reply -- and Memory Read (MRd), which is answered by a
// Completion-with-Data (CplD) from the target. Each TLP carries, besides
// the transport fields, a typed semantic content so the behavioural NIC
// and Root Complex models do not need to decode raw bytes: the content
// mirrors what the device-specific descriptor formats encode on real
// hardware.

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.hpp"

namespace bb::pcie {

enum class TlpType : std::uint8_t {
  kMemWrite,        // MWr: posted write
  kMemRead,         // MRd: read request, expects CplD
  kCompletionData,  // CplD: completion with data
};

enum class Direction : std::uint8_t {
  kDownstream,  // Root Complex -> NIC
  kUpstream,    // NIC -> Root Complex
};

std::string to_string(TlpType t);
std::string to_string(Direction d);

/// Operation requested by a message descriptor.
enum class WireOp : std::uint8_t {
  kRdmaWrite,  // one-sided put (UCX put_short / put_bw test)
  kSend,       // two-sided send, matched by a posted receive (am_short)
};

/// The device-specific message descriptor as the NIC sees it (§2 step 0).
struct WireMd {
  std::uint64_t msg_id = 0;   // simulator-wide message identity
  std::uint32_t qp = 0;       // queue pair the post targets
  /// Destination node, set by the posting endpoint (-1 = unset; the
  /// fabric rejects it).
  int dst_node = -1;
  WireOp op = WireOp::kRdmaWrite;
  std::uint32_t payload_bytes = 0;
  bool inline_payload = false;  // payload embedded in the MD
  bool signaled = true;         // request a CQE for this post
  /// Opaque immediate data delivered with the message (the ibv
  /// imm_data/header equivalent); protocol layers use it for control
  /// messages (e.g. rendezvous RTS/CTS/FIN).
  std::uint64_t user_data = 0;
};

// --- Semantic contents carried by TLPs ------------------------------------

/// 8-byte atomic DoorBell write (§2 step 1, non-PIO path).
struct DoorbellWrite {
  std::uint32_t qp = 0;
  std::uint64_t counter = 0;
};

/// PIO ("BlueFlame") descriptor write: the CPU copies the MD -- and, with
/// inlining, the payload -- straight into device memory in 64 B chunks.
struct DescriptorWrite {
  WireMd md;
};

/// NIC DMA-write of a completion entry into a host CQ (64 B on Mellanox).
struct CqeWrite {
  std::uint32_t qp = 0;
  std::uint64_t msg_id = 0;
  /// Number of operations this CQE retires (unsignalled moderation: a CQE
  /// every c ops acknowledges all c).
  std::uint32_t completes = 1;
  /// kIoError marks a completion-with-error (exhausted link recovery).
  common::Status status = common::Status::kOk;
};

/// NIC DMA-write of an inbound message payload into host memory.
struct PayloadWrite {
  std::uint64_t msg_id = 0;
  std::uint32_t qp = 0;
  std::uint32_t bytes = 0;
  std::uint64_t user_data = 0;
  WireOp op = WireOp::kSend;
};

/// NIC DMA-read request (MRd) for a host-resident MD or payload. The NIC
/// matches the CplD to its read by the TLP tag, not by an address.
struct ReadRequest {
  enum class What : std::uint8_t { kDescriptor, kPayload };
  What what = What::kDescriptor;
  std::uint32_t qp = 0;
  std::uint32_t bytes = 0;
};

/// CplD answering a ReadRequest.
struct ReadCompletion {
  ReadRequest::What what = ReadRequest::What::kDescriptor;
  WireMd md;  // valid when what == kDescriptor
  std::uint32_t bytes = 0;
  /// False when the completer aborted without touching host state (the
  /// MRd itself arrived poisoned), so no descriptor was consumed.
  bool served = true;
};

using TlpContent = std::variant<std::monostate, DoorbellWrite, DescriptorWrite,
                                CqeWrite, PayloadWrite, ReadRequest,
                                ReadCompletion>;

struct Tlp {
  TlpType type = TlpType::kMemWrite;
  Direction dir = Direction::kDownstream;
  /// Payload size on the wire (the PIO post of an 8-byte message is one
  /// 64-byte chunk; a CQE is 64 bytes; an MRd carries no data).
  std::uint32_t bytes = 0;
  /// Transaction tag pairing MRd with its CplD.
  std::uint64_t tag = 0;
  /// Error forwarding (the EP bit): set when the sender exhausted its
  /// data-link replay budget and forwarded the TLP anyway. Receivers turn
  /// poisoned TLPs into error completions instead of acting on their
  /// (nominally corrupt) content.
  bool poisoned = false;
  TlpContent content;
};

/// Total data credits (in 16-byte units, 4 DW) a TLP consumes.
std::uint32_t data_credit_units(const Tlp& tlp);

}  // namespace bb::pcie
