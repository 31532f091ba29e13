// The per-message path allocates nothing once warm: a PCIe link's
// posted queue and a NIC flow's go-back-N window are engine rings
// (sim::detail::Ring), elided ACKs sit in rings and a heap that keep
// their storage, and every event comes from the engine's pools.
//
// This binary installs counting global `operator new`/`delete` hooks; it
// is kept separate so the hooks cannot perturb other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "pcie/link.hpp"
#include "scenario/testbed.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace bb {
namespace {

pcie::Tlp pio_put(std::uint64_t msg_id, bool signaled) {
  pcie::WireMd md;
  md.msg_id = msg_id;
  md.qp = 1;
  md.dst_node = 1;
  md.op = pcie::WireOp::kRdmaWrite;
  md.payload_bytes = 8;
  md.inline_payload = true;
  md.signaled = signaled;
  pcie::Tlp t;
  t.type = pcie::TlpType::kMemWrite;
  t.bytes = 64;
  t.content = pcie::DescriptorWrite{md};
  return t;
}

TEST(PathAlloc, WarmLinkPostsAndIssuesAllocateNothing) {
  sim::Simulator sim;
  pcie::Link link(sim, pcie::LinkParams{});
  link.set_b_tlp_handler(
      [&link](const pcie::Tlp& t) { link.release_credits(t); });
  std::uint64_t id = 0;
  // 200 posts at once against 64 posted headers: most wait in the
  // posted queue and issue inside the UpdateFC arrivals that free them.
  const auto wave = [&] {
    for (int i = 0; i < 200; ++i) {
      link.post(pcie::Direction::kDownstream, pio_put(++id, false));
    }
    sim.run();
  };
  wave();
  const std::uint64_t stalls = link.credit_stalls(pcie::Direction::kDownstream);
  const std::uint64_t allocs = g_heap_allocs.load();
  for (int w = 0; w < 4; ++w) wave();
  EXPECT_EQ(g_heap_allocs.load(), allocs) << "warm posts allocated";
  EXPECT_GT(link.credit_stalls(pcie::Direction::kDownstream), stalls);
  EXPECT_EQ(link.issued(pcie::Direction::kDownstream), 5u * 200);
}

TEST(PathAlloc, WarmInjectsAndAcksAllocateNothing) {
  scenario::Testbed tb(scenario::presets::deterministic());
  tb.analyzer().set_enabled(false);
  auto& n0 = tb.node(0);
  std::uint64_t id = 0;
  // Unsignalled inline puts posted by PIO: each injects, lands at node 1
  // without a CQE and is ACKed with no event. (A signalled one would
  // push a CQE onto a CqRing, a deque that takes a block now and then.)
  const auto wave = [&] {
    for (int i = 0; i < 128; ++i) n0.rc.post_mmio(pio_put(++id, false));
    tb.sim().run();
  };
  wave();
  const std::uint64_t allocs = g_heap_allocs.load();
  for (int w = 0; w < 4; ++w) wave();
  EXPECT_EQ(g_heap_allocs.load(), allocs) << "warm injects allocated";
  EXPECT_EQ(n0.nic.messages_injected(), 5u * 128);
  EXPECT_EQ(n0.nic.acks_received(), 5u * 128);
  EXPECT_EQ(n0.nic.tx_unacked(), 0u);
  EXPECT_EQ(tb.node(1).host.payload_writes(), 5u * 128);
}

}  // namespace
}  // namespace bb
