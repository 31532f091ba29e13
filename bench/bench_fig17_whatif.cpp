// Reproduces Fig. 17 (a-d): the simulated-optimization what-if analysis.
//
// Beyond printing the paper's four panels from the analytical engine,
// this bench *executes* three of §7's optimizations as real configuration
// changes in the simulator (fast device memory, integrated NIC, Gen-Z
// switch) and compares the predicted speedups against the speedups
// actually observed -- the paper's note that a simulator would "result in
// exactly the same linear speedups" is checked rather than assumed.

#include <cstdio>

#include "benchlib/osu.hpp"
#include "benchlib/put_bw.hpp"
#include "core/whatif.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

namespace {

double observed_injection_ns(const scenario::SystemConfig& cfg) {
  // Fig. 17a's base is the *overall* injection overhead (Eq. 2), so the
  // simulated counterpart is the OSU message-rate loop, not put_bw.
  scenario::Testbed tb(cfg);
  bench::OsuMessageRate b(tb, {.windows = 250, .warmup_windows = 25});
  return b.run().cpu_per_msg_ns;
}

double observed_latency_ns(const scenario::SystemConfig& cfg) {
  scenario::Testbed tb(cfg);
  bench::OsuLatency b(tb, {.iterations = 1500, .warmup = 150});
  return b.run().adjusted_mean_ns;
}

}  // namespace

int main(int argc, char** argv) {
  bbench::header("bench_fig17_whatif -- simulated optimizations",
                 "Fig. 17 a-d + the §7 spot checks");

  const auto table = core::ComponentTable::from_config(
      scenario::presets::thunderx2_cx4());
  const core::WhatIf w(table);

  std::printf("%s\n", w.injection_cpu().render().c_str());
  std::printf("%s\n", w.latency_cpu().render().c_str());
  std::printf("%s\n", w.latency_io().render().c_str());
  std::printf("%s\n", w.latency_network().render().c_str());

  std::printf("§7 spot checks (analytical):\n");
  std::printf("  PIO -> 15 ns:       injection +%.2f%%, latency +%.2f%%\n",
              w.pio_injection_speedup() * 100, w.pio_latency_speedup() * 100);
  std::printf("  HLP -20%%:           injection +%.2f%%\n",
              w.hlp_injection_speedup(0.2) * 100);
  std::printf("  LLP -20%%:           injection +%.2f%%\n",
              w.llp_injection_speedup(0.2) * 100);
  std::printf("  I/O -50%% (SoC NIC): latency  +%.2f%%\n",
              w.integrated_nic_latency_speedup(0.5) * 100);
  std::printf("  Switch -> 30 ns:    latency  +%.2f%%\n\n",
              w.switch_latency_speedup(30.0) * 100);

  // --- Execute three optimizations in the simulator --------------------
  std::printf("running baseline + 3 optimized configurations...\n");
  // Five independent simulations; 0/2 measure injection, the rest latency.
  const auto res = exec::run_sweep(
      exec::sweep<int>({0, 1, 2, 3, 4}),
      [](int which, exec::Job&) {
        switch (which) {
          case 0:
            return observed_injection_ns(scenario::presets::thunderx2_cx4());
          case 1:
            return observed_latency_ns(scenario::presets::thunderx2_cx4());
          case 2:
            return observed_injection_ns(
                scenario::presets::thunderx2_cx4().with(
                    scenario::overlays::fast_device_memory(15.0)));
          case 3:
            return observed_latency_ns(scenario::presets::thunderx2_cx4().with(
                scenario::overlays::integrated_nic(0.5)));
          default:
            return observed_latency_ns(scenario::presets::thunderx2_cx4().with(
                scenario::overlays::genz_switch(30.0)));
        }
      },
      bbench::exec_options(argc, argv));
  bbench::note_exec("what-if configurations", res);
  const double base_inj = res.values[0];
  const double base_lat = res.values[1];
  const double pio_inj = res.values[2];
  const double soc_lat = res.values[3];
  const double genz_lat = res.values[4];

  const double sim_pio_inj = (base_inj - pio_inj) / base_inj;
  const double sim_soc_lat = (base_lat - soc_lat) / base_lat;
  const double sim_genz_lat = (base_lat - genz_lat) / base_lat;

  std::printf("\n%-28s %12s %12s\n", "optimization", "predicted", "simulated");
  std::printf("%-28s %11.2f%% %11.2f%%\n", "PIO->15ns (injection)",
              w.pio_injection_speedup() * 100, sim_pio_inj * 100);
  std::printf("%-28s %11.2f%% %11.2f%%\n", "I/O -50% (latency)",
              w.integrated_nic_latency_speedup(0.5) * 100, sim_soc_lat * 100);
  std::printf("%-28s %11.2f%% %11.2f%%\n", "switch->30ns (latency)",
              w.switch_latency_speedup(30.0) * 100, sim_genz_lat * 100);

  bbench::Validator v;
  v.within("PIO spot check (29.9% injection)",
           w.pio_injection_speedup() * 100, 29.9, 0.02);
  v.is_true("PIO injection speedup > 25% (paper)",
            w.pio_injection_speedup() > 0.25);
  v.is_true("PIO latency speedup > 5% (paper)", w.pio_latency_speedup() > 0.05);
  v.within("HLP -20% => 6.44%", w.hlp_injection_speedup(0.2) * 100, 6.44, 0.01);
  v.within("LLP -20% => 13.33%", w.llp_injection_speedup(0.2) * 100, 13.33,
           0.01);
  v.is_true("I/O -50% => >15% latency (paper)",
            w.integrated_nic_latency_speedup(0.5) > 0.15);
  v.within("switch->30ns ~ 5.5% latency", w.switch_latency_speedup(30.0) * 100,
           5.45, 0.05);
  // Simulated-vs-predicted agreement (within 2.5 percentage points; the
  // simulator carries real-loop effects the linear model does not).
  v.is_true("sim PIO injection within 2.5pp of prediction",
            std::abs(sim_pio_inj - w.pio_injection_speedup()) < 0.025);
  v.is_true("sim integrated-NIC latency within 2.5pp of prediction",
            std::abs(sim_soc_lat - w.integrated_nic_latency_speedup(0.5)) <
                0.025);
  v.is_true("sim Gen-Z switch latency within 2.5pp of prediction",
            std::abs(sim_genz_lat - w.switch_latency_speedup(30.0)) < 0.025);
  return v.finish();
}
