// Pins the timing of the untapped, fault-free credit loop: a Root Complex
// with a tiny posted-credit budget posting MMIO writes through a Link with
// no analyzer, while the B side returns one UpdateFC per TLP and answers
// every 4th TLP with an upstream MWr. Acks, UpdateFCs and TLPs contend on
// the upstream transmitter and every credit return gates the next
// downstream post, so any change to how DLLPs are delivered on this path shows up in
// the arrival times, the stall count or the drained end time.

#include <gtest/gtest.h>

#include <cstdint>

#include "pcie/credit.hpp"
#include "pcie/link.hpp"
#include "pcie/root_complex.hpp"

namespace bb::pcie {
namespace {

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

Tlp mwr64() {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = 64;
  return t;
}

TEST(CreditLoop, UntappedPostedWritesAreTimingPinned) {
  sim::Simulator sim;
  Link link(sim, LinkParams{}, nullptr, nullptr,  // no analyzer, no injector
            CreditState::with_budget({2, 8}, {1, 1}, {2, 8}));
  RootComplex rc(sim, link, RcParams{});
  std::uint64_t committed = 0;
  rc.set_memory_sink([&](const Tlp&, TimePs) { ++committed; });

  Fnv arrivals;
  std::uint64_t at_b = 0;
  link.set_b_tlp_handler([&](const Tlp& tlp) {
    arrivals.mix(static_cast<std::uint64_t>(sim.now().ps()));
    link.release_credits(tlp);
    if (++at_b % 4 == 0) link.post(Direction::kUpstream, mwr64());
  });

  constexpr int kWrites = 500;
  for (int i = 0; i < kWrites; ++i) rc.post_mmio(mwr64());
  sim.run();

  EXPECT_EQ(at_b, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(committed, static_cast<std::uint64_t>(kWrites / 4));
  EXPECT_EQ(arrivals.h, 0x48bb7c78dbd11cbeull);
  EXPECT_EQ(rc.credit_stalls(), 498u);
  EXPECT_EQ(sim.now().ps(), 68773920);
  EXPECT_EQ(rc.credits().outstanding_headers(CreditClass::kPosted), 0);
}

}  // namespace
}  // namespace bb::pcie
