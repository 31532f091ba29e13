#include "scenario/config.hpp"

namespace bb::scenario {

void apply_overlay(SystemConfig& c, const overlays::Overlay& o) {
  if (!o.label.empty()) {
    // Relabel rule: overlaying the pristine testbed *names* the scenario
    // ("genz-switch", not "thunderx2-cx4+genz-switch");
    // overlaying anything else records the composition.
    if (c.name == "thunderx2-cx4") {
      c.name = o.label;
    } else {
      c.name += "+" + o.label;
    }
  }
  if (o.fn) o.fn(c);
}

void apply_overlay(SystemConfig& c, const fault::FaultConfig& f) {
  apply_overlay(c, overlays::faults(f));
}

namespace overlays {

Overlay integrated_nic(double io_reduction) {
  const double keep = 1.0 - io_reduction;
  return {"integrated-nic", [keep](SystemConfig& c) {
            c.link.base_latency_ns *= keep;
            c.link.per_byte_ns *= keep;
            c.rc.rc_to_mem_base_ns *= keep;
            c.rc.rc_to_mem_per_byte_ns *= keep;
          }};
}

Overlay fast_device_memory(double pio_copy_ns) {
  return {"fast-device-memory", [pio_copy_ns](SystemConfig& c) {
            c.cpu.pio_copy_64b.mean_ns = pio_copy_ns;
          }};
}

Overlay genz_switch(double switch_ns) {
  return {"genz-switch", [switch_ns](SystemConfig& c) {
            c.net.switch_latency_ns = switch_ns;
          }};
}

Overlay pam4_fec_wire(double extra_wire_ns) {
  return {"pam4-fec-wire", [extra_wire_ns](SystemConfig& c) {
            c.net.wire_latency_ns += extra_wire_ns;
            // Higher signalling rate: double the serialization bandwidth.
            c.net.serialize_ns_per_byte /= 2.0;
          }};
}

Overlay tofu_d_like() {
  // §7.1: Tofu-D's integrated NIC improved RDMA-write latency by ~400 ns.
  // Model it as an 80% I/O reduction, which removes ~413 ns of the
  // (2xPCIe + RC-to-MEM) = 516 ns I/O budget.
  Overlay o = integrated_nic(0.8);
  o.label = "tofu-d-like";
  return o;
}

Overlay doorbell_dma() {
  return {"doorbell-dma", [](SystemConfig& c) {
            c.endpoint.use_pio = false;
            c.endpoint.inline_payload = false;
          }};
}

Overlay unsignaled_completions(std::uint32_t period) {
  return {"unsignaled-completions", [period](SystemConfig& c) {
            c.endpoint.signal.period = period;
          }};
}

Overlay tso_cpu() {
  return {"tso-cpu", [](SystemConfig& c) {
            // The MD barrier disappears entirely; the DoorBell-counter
            // step keeps its update work but loses the dmb (we attribute
            // ~75% of the measured 21.07 ns to the barrier itself).
            c.cpu.barrier_store_md.mean_ns = 0.0;
            c.cpu.barrier_store_dbc.mean_ns = 21.07 * 0.25;
          }};
}

Overlay deterministic() {
  return {"deterministic", [](SystemConfig& c) { c.cpu.strip_jitter(); }};
}

Overlay coll_tuning(coll::CollTuning t) {
  return {"coll-tuning", [t](SystemConfig& c) { c.coll = t; }};
}

Overlay incast_modeling(bool on) {
  return {"incast", [on](SystemConfig& c) { c.net.model_incast = on; }};
}

Overlay faults(fault::FaultConfig f) {
  return {"faults", [f = std::move(f)](SystemConfig& c) { c.fault = f; }};
}

Overlay faults(double tlp_corrupt_prob) {
  fault::FaultConfig f;
  f.tlp_corrupt_prob = tlp_corrupt_prob;
  return faults(std::move(f));
}

Overlay wire_faults(fault::WireFaultConfig w) {
  return {"wire-faults",
          [w = std::move(w)](SystemConfig& c) { c.fault.wire = w; }};
}

Overlay wire_loss(double drop_prob) {
  fault::WireFaultConfig w;
  w.drop_prob = drop_prob;
  return wire_faults(std::move(w));
}

}  // namespace overlays

namespace presets {

SystemConfig thunderx2_cx4() { return SystemConfig{}; }

SystemConfig deterministic() {
  return thunderx2_cx4().with(overlays::deterministic());
}

}  // namespace presets

}  // namespace bb::scenario
