// Fine-grained halo exchange: the workload class the paper's introduction
// motivates -- at the limit of strong scaling every core exchanges small
// messages each iteration, so per-message overhead dominates.
//
// Two neighbouring ranks of a 1-D-decomposed 2-D stencil exchange one
// 8-byte halo element per boundary cell per iteration, then "compute".
// The example runs the exchange on the paper's baseline machine and on
// two of §7's optimized machines, showing how the what-if predictions
// translate into application-level iteration time.

#include <cstdio>
#include <vector>

#include "core/whatif.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

using namespace bb;
using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

namespace {

struct StencilResult {
  double per_iteration_us = 0;
  double per_message_ns = 0;
};

constexpr int kIterations = 40;
constexpr int kHaloCells = 64;  // boundary cells exchanged per iteration
constexpr auto kComputeTime = 5_us;

sim::Task<void> rank(Testbed& tb, MpiStack& st, double* per_iter_us) {
  const double t0 = st.node().core.virtual_now().to_ns();
  for (int it = 0; it < kIterations; ++it) {
    // Post receives for the neighbour's halo, send ours, then wait.
    std::vector<hlp::Request*> recvs, sends;
    for (int c = 0; c < kHaloCells; ++c) {
      recvs.push_back(st.mpi().irecv(8).value());
    }
    for (int c = 0; c < kHaloCells; ++c) {
      sends.push_back((co_await st.mpi().isend(8)).value());
    }
    co_await st.mpi().waitall(sends);
    for (hlp::Request* r : recvs) {
      co_await st.mpi().wait(r);
    }
    // Interior computation (overlappable in a more aggressive schedule).
    co_await st.node().core.flush();
    co_await tb.sim().delay(kComputeTime);
  }
  if (per_iter_us != nullptr) {
    *per_iter_us =
        (st.node().core.virtual_now().to_ns() - t0) / 1e3 / kIterations;
  }
}

StencilResult run(const scenario::SystemConfig& cfg) {
  Testbed tb(cfg);
  MpiStack a(tb, 0);
  MpiStack b(tb, 1);
  const std::uint32_t msgs = kIterations * kHaloCells + 8;
  tb.node(0).nic.post_receives(msgs);
  tb.node(1).nic.post_receives(msgs);

  StencilResult res;
  tb.sim().spawn(rank(tb, a, &res.per_iteration_us));
  tb.sim().spawn(rank(tb, b, nullptr));
  tb.sim().run();
  res.per_message_ns = (res.per_iteration_us * 1e3 -
                        kComputeTime.to_ns() / 1e3 * 1e3) /
                       kHaloCells;
  return res;
}

}  // namespace

int main() {
  std::printf("2-rank stencil halo exchange: %d iterations, %d x 8-byte\n"
              "halo messages per iteration, %.0f us compute per iteration\n\n",
              kIterations, kHaloCells, kComputeTime.to_ns() / 1e3);

  const scenario::SystemConfig testbed = scenario::presets::thunderx2_cx4();
  const StencilResult base = run(testbed);
  const StencilResult fast_pio =
      run(testbed.with(scenario::overlays::fast_device_memory()));
  const StencilResult soc =
      run(testbed.with(scenario::overlays::integrated_nic(0.5)));

  std::printf("%-28s %16s %16s\n", "machine", "iter time (us)",
              "per-msg (ns)");
  std::printf("%-28s %16.2f %16.2f\n", "ThunderX2+CX4 (paper)",
              base.per_iteration_us, base.per_message_ns);
  std::printf("%-28s %16.2f %16.2f\n", "fast device memory (PIO 15ns)",
              fast_pio.per_iteration_us, fast_pio.per_message_ns);
  std::printf("%-28s %16.2f %16.2f\n", "integrated NIC (I/O -50%)",
              soc.per_iteration_us, soc.per_message_ns);

  const auto w = core::WhatIf(core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4()));
  std::printf("\npaper's what-if predictions for the messaging share:\n");
  std::printf("  PIO->15ns:  injection -%.1f%%\n",
              w.pio_injection_speedup() * 100);
  std::printf("  I/O -50%%:   latency   -%.1f%%\n",
              w.integrated_nic_latency_speedup(0.5) * 100);
  return 0;
}
