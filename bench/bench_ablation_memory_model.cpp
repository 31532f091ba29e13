// Ablation: the weak-memory-model tax. §4.1 notes both store barriers in
// the post sequence exist only for aarch64's weak memory model; this
// bench runs the same machine with TSO (x86-like) ordering and
// quantifies the barriers' share of LLP_post, injection, and latency.

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "exec/sweep.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int main(int argc, char** argv) {
  bbench::header("bench_ablation_memory_model -- weak ordering vs TSO",
                 "§4.1's barrier discussion (design ablation)");

  const scenario::SystemConfig arm_cfg = scenario::presets::thunderx2_cx4();
  const scenario::SystemConfig tso_cfg =
      arm_cfg.with(scenario::overlays::tso_cpu());
  const auto arm = core::ComponentTable::from_config(arm_cfg);
  const auto tso = core::ComponentTable::from_config(tso_cfg);

  std::printf("%-22s %12s %12s\n", "", "aarch64", "TSO");
  std::printf("%-22s %12.2f %12.2f\n", "LLP_post (ns)", arm.llp_post(),
              tso.llp_post());
  std::printf("%-22s %12.2f %12.2f\n", "Eq.1 injection (ns)",
              core::InjectionModel(arm).llp_injection_ns(),
              core::InjectionModel(tso).llp_injection_ns());
  std::printf("%-22s %12.2f %12.2f\n", "e2e latency (ns)",
              core::LatencyModel(arm).e2e_latency_ns(),
              core::LatencyModel(tso).e2e_latency_ns());

  // Execute both machines, one job each.
  const auto res = exec::run_sweep(
      exec::sweep<bool>({false, true}),
      [&](bool use_tso, exec::Job&) {
        scenario::Testbed tb(use_tso ? tso_cfg : arm_cfg);
        bench::PutBwBenchmark b(tb, {.messages = 6000, .warmup = 600});
        return b.run().nic_deltas.summarize().mean;
      },
      bbench::exec_options(argc, argv));
  bbench::note_exec("memory-model pair", res);
  const double inj_arm = res.values[0];
  const double inj_tso = res.values[1];

  std::printf("%-22s %12.2f %12.2f   (simulated put_bw)\n",
              "observed injection", inj_arm, inj_tso);
  const double tax = arm.llp_post() - tso.llp_post();
  std::printf("\nmemory-model tax: %.2f ns per post (%.1f%% of LLP_post)\n",
              tax, tax / arm.llp_post() * 100.0);

  bbench::Validator v;
  v.within("tax = MD barrier + 75% of DBC step", tax,
           17.33 + 21.07 * 0.75, 0.001);
  v.is_true("TSO injects faster", inj_tso < inj_arm - 15.0);
  v.is_true("tax is substantial (>15% of LLP_post)",
            tax / arm.llp_post() > 0.15);
  return v.finish();
}
