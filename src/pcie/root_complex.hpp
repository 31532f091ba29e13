#pragma once
// The Root Complex (§2): connects the processor and memory to the PCIe
// fabric.
//
// Downstream: CPU cores deposit posted MMIO writes (DoorBell rings, PIO
// descriptor copies), which the link issues as MWr TLPs as soon as flow-
// control credits allow. The RC's own generation cost is a few cycles
// and is ignored, following §4.2.
//
// Upstream: MWr TLPs from the NIC (completions, inbound payloads) are
// committed to host memory after the RC-to-MEM(x B) latency and then
// surfaced to the registered memory sink; MRd TLPs (NIC DMA reads of
// descriptors/payloads) are answered with CplD after the memory read
// latency. Every processed upstream TLP returns its credits to the NIC.

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "pcie/credit.hpp"
#include "pcie/link.hpp"
#include "sim/simulator.hpp"

namespace bb::pcie {

struct RcParams {
  /// RC-to-MEM(x B) = base + per_byte * x. Calibrated so that
  /// RC-to-MEM(8 B) = 240.96 ns (Table 1).
  double rc_to_mem_base_ns = 238.16;
  double rc_to_mem_per_byte_ns = 0.35;
  /// Host DRAM read latency serving a NIC DMA read.
  double mem_read_ns = 150.0;

  TimePs rc_to_mem(std::uint32_t bytes) const {
    return TimePs::from_ns(rc_to_mem_base_ns +
                           rc_to_mem_per_byte_ns * static_cast<double>(bytes));
  }
};

class RootComplex {
 public:
  /// A committed host-memory write: the TLP plus the time at which the
  /// write became visible to CPU loads.
  using MemorySink = std::function<void(const Tlp&, TimePs visible_at)>;
  /// Serves NIC DMA reads of host-resident descriptors/payloads.
  using ReadProvider = std::function<ReadCompletion(const ReadRequest&)>;

  RootComplex(sim::Simulator& sim, Link& link, RcParams params);
  RootComplex(const RootComplex&) = delete;
  RootComplex& operator=(const RootComplex&) = delete;

  void set_memory_sink(MemorySink sink) { mem_sink_ = std::move(sink); }
  /// Told when an inbound DMA write is scheduled -- at TLP arrival,
  /// before its commit is queued -- so the memory can wake pollers
  /// parked on it (docs/SIM_ENGINE.md "Parked waiters").
  void set_write_notice(std::function<void()> notice) {
    write_notice_ = std::move(notice);
  }
  void set_read_provider(ReadProvider p) { read_provider_ = std::move(p); }

  /// Posted MMIO write from a CPU core (fire-and-forget: posted writes do
  /// not stall the core). The caller must have flushed its core first.
  void post_mmio(Tlp tlp);

  const RcParams& params() const { return params_; }
  const CreditState& credits() const {
    return link_.credits(Direction::kDownstream);
  }

  std::uint64_t mmio_issued() const {
    return link_.issued(Direction::kDownstream);
  }
  std::uint64_t mem_writes_committed() const { return mem_writes_committed_; }
  std::uint64_t credit_stalls() const {
    return link_.credit_stalls(Direction::kDownstream);
  }

 private:
  void on_upstream_tlp(const Tlp& tlp);

  sim::Simulator& sim_;
  Link& link_;
  RcParams params_;
  MemorySink mem_sink_;
  std::function<void()> write_notice_;
  ReadProvider read_provider_;
  std::uint64_t mem_writes_committed_ = 0;
};

}  // namespace bb::pcie
