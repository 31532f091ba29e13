#include "pcie/tlp.hpp"

#include "common/assert.hpp"

namespace bb::pcie {

std::string to_string(TlpType t) {
  switch (t) {
    case TlpType::kMemWrite:
      return "MWr";
    case TlpType::kMemRead:
      return "MRd";
    case TlpType::kCompletionData:
      return "CplD";
  }
  BB_UNREACHABLE("bad TlpType");
}

std::string to_string(Direction d) {
  switch (d) {
    case Direction::kDownstream:
      return "down";
    case Direction::kUpstream:
      return "up";
  }
  BB_UNREACHABLE("bad Direction");
}

std::uint32_t data_credit_units(const Tlp& tlp) {
  // One unit per started 16 bytes of data; MRd carries none.
  if (tlp.type == TlpType::kMemRead) return 0;
  return (tlp.bytes + 15) / 16;
}

}  // namespace bb::pcie
