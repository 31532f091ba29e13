// OSU-style collective latency: simulated bb::coll schedules vs the
// bb::model alpha-beta forecast, across the 8B..4KiB size sweep on 4 and
// 8 ranks (allreduce and bcast), plus barrier/allgather reference rows
// and a what-if section running the same collective on modified
// machines. The model rows must land within +-10% of the simulation;
// the binary exits non-zero otherwise.
//
// `--smoke` shrinks the sweep for CI (fewer iterations, endpoints of the
// size range) while keeping the validation band active.

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "benchlib/osu_coll.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/cluster.hpp"
#include "util.hpp"

namespace {

using bb::bench::CollResult;
using bb::bench::OsuColl;
using bb::bench::OsuCollConfig;

double simulate(const bb::scenario::SystemConfig& cfg, int ranks,
                OsuColl::Kind kind, std::uint32_t bytes,
                std::uint64_t iterations) {
  bb::scenario::Cluster cl(cfg, ranks);
  bb::coll::World world(cl);
  OsuCollConfig c;
  c.bytes = bytes;
  c.iterations = iterations;
  c.warmup = iterations / 4 + 2;
  OsuColl bench(world, kind, c);
  return bench.run().mean_ns();
}

const char* kind_name(OsuColl::Kind k) {
  switch (k) {
    case OsuColl::Kind::kBarrier: return "barrier";
    case OsuColl::Kind::kBcast: return "bcast";
    case OsuColl::Kind::kAllgather: return "allgather";
    case OsuColl::Kind::kAllreduce: return "allreduce";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bbench::header("bench_coll_osu: collective latency, model vs simulated",
                 "collectives built on the paper's §5-§6 MPI stack");

  const bb::scenario::SystemConfig cfg = bb::scenario::presets::deterministic();
  const std::uint64_t iters = smoke ? 8 : 40;
  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{8, 512, 4096}
            : std::vector<std::uint32_t>{8, 64, 256, 512, 1024, 2048, 4096};
  const std::vector<int> rank_counts = {4, 8};

  bbench::Validator v;
  bb::model::CollModel model(cfg);
  const auto opts = bbench::exec_options(argc, argv);

  // Main band: kind x ranks x size, expanded in the print order below
  // (size fastest), one simulation per job.
  const std::vector<OsuColl::Kind> kinds = {OsuColl::Kind::kAllreduce,
                                            OsuColl::Kind::kBcast};
  const auto band = bb::exec::run_sweep(
      bb::exec::sweep(bb::exec::grid(kinds, rank_counts, sizes)),
      [&](const std::tuple<OsuColl::Kind, int, std::uint32_t>& pt,
          bb::exec::Job&) {
        return simulate(cfg, std::get<1>(pt), std::get<0>(pt),
                        std::get<2>(pt), iters);
      },
      opts);
  bbench::note_exec("collective band", band);

  std::size_t cell = 0;
  for (OsuColl::Kind kind : kinds) {
    for (int ranks : rank_counts) {
      std::printf("%s, %d ranks (deterministic testbed)\n", kind_name(kind),
                  ranks);
      std::printf("  %10s %8s %14s %14s %8s\n", "bytes", "algo", "sim ns",
                  "model ns", "err %");
      for (std::uint32_t bytes : sizes) {
        const double sim = band.values[cell++];
        double mdl = 0.0;
        bb::coll::Algo algo = bb::coll::Algo::kAuto;
        if (kind == OsuColl::Kind::kAllreduce) {
          mdl = model.allreduce_ns(ranks, bytes);
          algo = bb::coll::resolve_allreduce(cfg.coll, ranks, bytes);
        } else {
          mdl = model.bcast_ns(ranks, bytes);
          algo = bb::coll::resolve_bcast(cfg.coll, ranks, bytes);
        }
        const double err = (mdl - sim) / sim * 100.0;
        std::printf("  %10u %8s %14.1f %14.1f %+7.1f%%\n", bytes,
                    bb::coll::algo_name(algo), sim, mdl, err);
        char what[96];
        std::snprintf(what, sizeof(what), "%s %dB x%d model band",
                      kind_name(kind), bytes, ranks);
        v.within(what, mdl, sim, 0.10);
      }
      std::printf("\n");
    }
  }

  // Reference rows (not part of the acceptance band): barrier and
  // allgather on 8 ranks.
  {
    std::printf("reference rows, 8 ranks\n");
    std::printf("  %-22s %14s %14s %8s\n", "collective", "sim ns", "model ns",
                "err %");
    const auto refs = bb::exec::run_sweep(
        bb::exec::sweep<int>({0, 1}),
        [&](int which, bb::exec::Job&) {
          return which == 0
                     ? simulate(cfg, 8, OsuColl::Kind::kBarrier, 8, iters)
                     : simulate(cfg, 8, OsuColl::Kind::kAllgather, 256, iters);
        },
        opts);
    bbench::note_exec("reference rows", refs);
    const double bsim = refs.values[0];
    const double bmdl = model.barrier_ns(8);
    std::printf("  %-22s %14.1f %14.1f %+7.1f%%\n", "barrier/dissemination",
                bsim, bmdl, (bmdl - bsim) / bsim * 100.0);
    const double gsim = refs.values[1];
    const double gmdl = model.allgather_ns(8, 256);
    std::printf("  %-22s %14.1f %14.1f %+7.1f%%\n", "allgather/bruck 256B",
                gsim, gmdl, (gmdl - gsim) / gsim * 100.0);
    std::printf("\n");
  }

  // What-if: the same collective on modified machines -- the model and
  // the simulator must move together because both read the SystemConfig.
  {
    std::printf("what-if: allreduce 1KiB x8, machine variations\n");
    std::printf("  %-18s %14s %14s %8s\n", "machine", "sim ns", "model ns",
                "err %");
    struct WhatIf {
      const char* name;
      bb::scenario::SystemConfig cfg;
    };
    const std::vector<WhatIf> machines = {
        {"baseline", cfg},
        {"integrated-nic",
         cfg.with(bb::scenario::overlays::integrated_nic(0.5))},
        {"genz-switch", cfg.with(bb::scenario::overlays::genz_switch(30.0))},
    };
    const auto wi = bb::exec::run_sweep(
        bb::exec::sweep<std::size_t>({0, 1, 2}),
        [&](std::size_t mi, bb::exec::Job&) {
          return simulate(machines[mi].cfg, 8, OsuColl::Kind::kAllreduce, 1024,
                          iters);
        },
        opts);
    bbench::note_exec("what-if machines", wi);
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      const WhatIf& m = machines[mi];
      const double sim = wi.values[mi];
      const double mdl = bb::model::CollModel(m.cfg).allreduce_ns(8, 1024);
      std::printf("  %-18s %14.1f %14.1f %+7.1f%%\n", m.name, sim, mdl,
                  (mdl - sim) / sim * 100.0);
      char what[96];
      std::snprintf(what, sizeof(what), "what-if %s allreduce", m.name);
      v.within(what, mdl, sim, 0.10);
    }
  }

  return v.finish();
}
