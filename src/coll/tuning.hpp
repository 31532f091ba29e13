#pragma once
// Algorithm-selection thresholds for the collective layer (bb::coll),
// MPICH/UCX style: short messages use the log-step algorithms (latency
// bound, minimize rounds), long messages the ring/chain family
// (bandwidth bound, minimize bytes moved per link). Part of
// scenario::SystemConfig so machines can retune the crossovers via
// overlays (a Gen-Z-class switch shifts them, for example).
//
// Header-only and dependency-free: scenario::SystemConfig embeds it, and
// bb::coll / bb::model consume it.

#include <cstdint>

namespace bb::coll {

struct CollTuning {
  /// Bcast: binomial tree below, chain (pipelined ring) at and above.
  std::uint32_t bcast_chain_min_bytes = 2048;
  /// Chain bcast pipelines the payload in segments of this size.
  std::uint32_t bcast_chain_segment_bytes = 1024;
  /// Allgather: Bruck below, ring at and above (per-rank contribution).
  std::uint32_t allgather_ring_min_bytes = 1024;
  /// Allreduce: recursive doubling below, ring (reduce-scatter +
  /// allgather) at and above.
  std::uint32_t allreduce_ring_min_bytes = 2048;
  /// Barrier: ring token up to this many ranks (cheap at trivial scale),
  /// dissemination above. 0 = always dissemination (the MPICH default).
  int barrier_ring_max_ranks = 0;
  /// Progress-engine watchdog for wait/waitall, in simulated
  /// microseconds: a request still incomplete after this long aborts the
  /// wait with common::Status::kTimedOut instead of hanging -- the
  /// lossy-fabric insurance of docs/TRANSPORT.md (e.g. a peer's QP died
  /// and its ops were flushed). Checked at the start of each progress
  /// pass; a wait parked on empty passes (docs/SIM_ENGINE.md "Parked
  /// waiters") arms a cancellable timer at the deadline, which leaves no
  /// event behind once cancelled, so error-free timing is untouched.
  /// 0 disables. The default is orders of magnitude above any
  /// healthy collective wait in the bench suite (whole 8-rank allreduce
  /// runs finish in ~25 ms simulated).
  double wait_timeout_us = 50000.0;
};

}  // namespace bb::coll
