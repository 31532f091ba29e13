#pragma once
// OSU-micro-benchmark-style collective loops (osu_allreduce /
// osu_bcast / osu_barrier / osu_allgather-like) over bb::coll.
//
// Each iteration synchronizes all ranks with a barrier, then times the
// collective on every rank. The per-iteration sample is the global
// window (last rank in -> last rank out): with a simulator's global
// clock this measures exactly the span the collective adds, where OSU's
// per-rank max would also fold in the sync barrier's exit skew. Results
// feed the model-vs-simulated comparison in bench_coll_osu.

#include <cstdint>
#include <vector>

#include "benchlib/bench_types.hpp"
#include "coll/coll.hpp"

namespace bb::bench {

struct OsuCollConfig {
  std::uint64_t iterations = 60;
  std::uint64_t warmup = 10;
  /// Payload bytes (total vector for allreduce/bcast, per-rank block for
  /// allgather; ignored by barrier).
  std::uint32_t bytes = 8;
  coll::Algo algo = coll::Algo::kAuto;
  int root = 0;  ///< bcast root
  /// Per-iteration epoch: after the sync barrier every rank idles until
  /// the common absolute tick (iteration+1)*epoch_ns, so all ranks enter
  /// the timed collective at the same instant (a simulator privilege a
  /// real OSU run does not have). Must exceed barrier + collective time
  /// for one iteration; asserted at runtime.
  double epoch_ns = 1.0e6;
};

/// Result of a collective latency run.
struct CollResult {
  /// Per-iteration collective time (global last-in -> last-out window).
  Samples iter_ns;
  std::uint64_t iterations = 0;
  double mean_ns() const { return iter_ns.summarize().mean; }
};

class OsuColl {
 public:
  enum class Kind { kBarrier, kBcast, kAllgather, kAllreduce };

  OsuColl(coll::World& world, Kind kind, OsuCollConfig cfg);

  CollResult run();

 private:
  sim::Task<void> rank_loop(int r);

  coll::World& world_;
  Kind kind_;
  OsuCollConfig cfg_;
  /// [rank][iteration] absolute entry/exit times in ns; run() reduces
  /// them to a per-iteration global window (last in -> last out).
  std::vector<std::vector<double>> starts_;
  std::vector<std::vector<double>> ends_;
};

}  // namespace bb::bench
