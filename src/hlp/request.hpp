#pragma once
// Communication requests of the high-level protocol layers.

#include <cstdint>

#include "common/status.hpp"

namespace bb::hlp {

struct Request {
  enum class Kind : std::uint8_t { kSend, kRecv };

  Kind kind = Kind::kSend;
  std::uint32_t bytes = 0;
  bool complete = false;
  /// Final disposition: kOk, or kIoError when the operation was retired
  /// by a completion-with-error after exhausted link-level recovery.
  common::Status status = common::Status::kOk;
  /// Send only: posted to the transport but waiting in the UCP pending
  /// queue after a busy post (§6: "UCP schedules the successful execution
  /// of LLP_post for busy posts during the progress of operations").
  bool pending = false;
  /// Set when a wait hands the completed request back to its worker; the
  /// worker's next send or receive may reuse it.
  bool released = false;
  /// Identity for debugging/tests.
  std::uint64_t seq = 0;
};

}  // namespace bb::hlp
