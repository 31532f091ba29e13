#pragma once
// Whole-system configuration and named presets.
//
// A SystemConfig aggregates every knob of the simulated machine. The
// default constructor *is* the paper's testbed: ThunderX2 @ 2 GHz,
// ConnectX-4 behind PCIe Gen3, Mellanox InfiniBand with one switch,
// MPICH/CH4 over UCX -- all calibrated to Table 1. The presets apply the
// §7 what-if configurations as actual machine changes, so the simulated
// optimizations can be *run*, not just computed.

#include <concepts>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "coll/tuning.hpp"
#include "cpu/cost_model.hpp"
#include "fault/fault.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "net/fabric.hpp"
#include "nic/nic.hpp"
#include "pcie/link.hpp"
#include "pcie/root_complex.hpp"

namespace bb::scenario {

struct SystemConfig {
  std::string name = "thunderx2-cx4";
  std::uint64_t seed = 42;

  cpu::CpuCostModel cpu;
  pcie::LinkParams link;
  pcie::RcParams rc;
  nic::NicParams nic;
  net::NetParams net;
  llp::WorkerConfig llp_worker;
  /// Template for endpoints created by the testbed.
  llp::EndpointConfig endpoint;
  /// Fault-injection plan (disabled by default: all rates zero, no
  /// scheduled one-shots). When disabled the testbed wires no injector
  /// and the simulation is bit-identical to the error-free machine.
  fault::FaultConfig fault;
  /// Collective algorithm-selection thresholds (bb::coll).
  coll::CollTuning coll;

  /// Compose overlays onto a copy of this config, left to right:
  ///   presets::thunderx2_cx4().with(overlays::genz_switch(30),
  ///                                 overlays::faults(1e-3));
  /// Each overlay is resolved through ADL `apply_overlay(config, o)`, so
  /// callers can compose the named overlays below, a raw
  /// fault::FaultConfig, or any callable taking `SystemConfig&`.
  template <typename... Overlays>
  [[nodiscard]] SystemConfig with(Overlays&&... overlays) const {
    SystemConfig c = *this;
    (apply_overlay(c, std::forward<Overlays>(overlays)), ...);
    return c;
  }
};

namespace overlays {

/// A named, reusable config transform. Overlays relabel the config they
/// touch: applied to the baseline testbed they *replace* the name (so
/// thunderx2_cx4().with(genz_switch()) is "genz-switch"); applied to
/// anything else they append "+label", making composed scenarios
/// self-describing.
struct Overlay {
  std::string label;
  std::function<void(SystemConfig&)> fn;
};

/// §7.1 "NIC integrated into a System-on-Chip": scale the whole I/O
/// subsystem (PCIe latency and RC-to-MEM) down by `io_reduction`.
Overlay integrated_nic(double io_reduction = 0.5);
/// §7.1 fast device memory: PIO copy at `pio_copy_ns`; the default
/// projects the paper's 15 ns (84% reduction).
Overlay fast_device_memory(double pio_copy_ns = 15.0);
/// §7.2 Gen-Z-class switch (30-50 ns forecast).
Overlay genz_switch(double switch_ns = 30.0);
/// §7.2 PAM4+FEC wire: +`extra_wire_ns` latency, 2x serialization rate.
Overlay pam4_fec_wire(double extra_wire_ns = 300.0);
/// Tofu-D-like integration: an 80% I/O reduction, shaving ~400 ns off
/// the one-sided latency (§7.1's post-K example).
Overlay tofu_d_like();
/// DoorBell + DMA descriptor/payload path instead of PIO+inline (the §2
/// baseline PIO replaces).
Overlay doorbell_dma();
/// One CQE per `period` ops (UCX default signalling is 64, §6).
Overlay unsignaled_completions(std::uint32_t period = 64);
/// Total-store-order (x86-like) CPU: §4.1's LLP_post store barriers exist
/// only for a weak memory model, so they vanish.
Overlay tso_cpu();
/// Strip all stochastic jitter from the CPU cost model.
Overlay deterministic();
/// Replace the collective algorithm-selection thresholds.
Overlay coll_tuning(coll::CollTuning t);
/// Model receiver-port occupancy under incast (off by default).
Overlay incast_modeling(bool on = true);
/// Enable fault injection with an explicit plan.
Overlay faults(fault::FaultConfig f);
/// Convenience: uniform TLP corruption BER (the common ablation axis).
Overlay faults(double tlp_corrupt_prob);
/// Wire-level (fabric) faults with an explicit plan; the NIC's RC
/// transport recovers (docs/TRANSPORT.md).
Overlay wire_faults(fault::WireFaultConfig w);
/// Convenience: uniform fabric packet-loss probability (the wire-loss
/// ablation axis).
Overlay wire_loss(double drop_prob);

}  // namespace overlays

/// Apply a named overlay: relabel per the Overlay rule, then transform.
void apply_overlay(SystemConfig& c, const overlays::Overlay& o);
/// A raw FaultConfig composes directly: `cfg.with(fault_cfg)`.
void apply_overlay(SystemConfig& c, const fault::FaultConfig& f);
/// Any callable taking SystemConfig& composes as an anonymous overlay.
template <typename F>
  requires std::invocable<F&, SystemConfig&>
void apply_overlay(SystemConfig& c, F&& f) {
  f(c);
}

namespace presets {
// Named machines. Single-change scenarios are the testbed plus one
// overlay: thunderx2_cx4().with(overlays::genz_switch()).

/// The paper's testbed (§3). Identical to a default-constructed config.
SystemConfig thunderx2_cx4();

/// The paper's testbed with every stochastic element removed: exact
/// component means, no hiccups. Timing becomes exactly predictable.
SystemConfig deterministic();

}  // namespace presets

}  // namespace bb::scenario
