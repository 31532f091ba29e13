#pragma once
// Shared pieces of the repository benchmark: the span recorder, the
// per-layer counter snapshot, and the result of one benchmark round.
//
// A run is a sequence of rounds. Each round builds a fresh machine from
// its own seed (set-up), runs a fixed number of closed-loop operations
// (the timed phase), and checks the machine's invariants at quiescence.
// Host-clock metrics are medians over rounds; simulated-clock metrics and
// per-layer counts come from the workload's first `sim_rounds` rounds
// only, so they are a pure function of the seed however fast the host is.

#include <chrono>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace perfbench {

using bb::TimePs;

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans ---------------------------------------------------------------

enum class SpanName : std::uint8_t {
  // Synchronous calls: host time is reported.
  kBuild,
  kWire,
  kWarmup,
  kSimRun,
  kModel,
  // Awaited calls and ops: simulated time only (host time across a
  // suspension belongs to other actors).
  kOp,
  kIsend,
  kWait,
  kBarrier,
  kAllreduce,
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "scenario.build", "scenario.wire", "scenario.warmup", "sim.run",
    "model.eval",     "op",            "hlp.isend",       "hlp.wait",
    "coll.barrier",   "coll.allreduce",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(SpanName::kCount));

inline bool host_reported(SpanName n) { return n <= SpanName::kModel; }

/// In-memory span store. Recording only reads clocks, so a traced round
/// simulates exactly what the untraced round does.
class Tracer {
 public:
  struct Span {
    SpanName name;
    int rank;
    std::int32_t parent;
    std::uint64_t op;
    std::int64_t sim_begin_ps, sim_end_ps;
    std::int64_t host_begin_ns, host_end_ns;
  };

  std::int32_t begin(SpanName n, TimePs sim_now, std::int32_t parent, std::uint64_t op,
                     int rank) {
    spans_.push_back({n, rank, parent, op, sim_now.ps(), -1, host_now_ns(), -1});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id, TimePs sim_now) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.sim_end_ps = sim_now.ps();
    s.host_end_ns = host_now_ns();
  }
  std::vector<Span> take() { return std::exchange(spans_, {}); }

 private:
  std::vector<Span> spans_;
};

/// Span helpers that are no-ops on an untraced round (`t == nullptr`).
inline std::int32_t span_begin(Tracer* t, SpanName n, TimePs sim_now,
                               std::int32_t parent = -1, std::uint64_t op = 0,
                               int rank = 0) {
  return t ? t->begin(n, sim_now, parent, op, rank) : -1;
}
inline void span_end(Tracer* t, std::int32_t id, TimePs sim_now) {
  if (t) t->end(id, sim_now);
}

// --- Per-layer counts ----------------------------------------------------

/// Cumulative counters read from the public accessors of each layer;
/// the difference of two snapshots is the activity in between.
struct Counts {
  std::uint64_t events = 0;
  // pcie
  std::uint64_t tlps = 0, mmio = 0, rc_credit_stalls = 0, mem_writes = 0;
  // nic
  std::uint64_t nic_msgs = 0, dma_reads = 0, cqes = 0, nic_credit_stalls = 0,
                error_cqes = 0;
  // net (fabric wire fates + RC protocol)
  std::uint64_t pkts_sent = 0, data_pkts_sent = 0, pkts_delivered = 0,
                pkts_dropped = 0, pkts_corrupted = 0, pkts_duplicated = 0,
                retransmits = 0, acks_sent = 0, naks_sent = 0, retry_firings = 0,
                qp_errors = 0;
  // llp
  std::uint64_t cqes_polled = 0, flushed = 0, posted = 0, busy_posts = 0;
  // hlp / coll
  std::uint64_t isends = 0, waits = 0, rndv_sends = 0;
  // cpu: rank 0's consumed CPU time
  std::uint64_t cpu0_busy_ps = 0;

  /// Adds one node's hardware and LLP-worker counters.
  void add_node(bb::scenario::Testbed::Node& n);
  /// Copies the merged transport stats (fabric + every NIC).
  void set_net(const bb::net::TransportStats& s);
  Counts operator-(const Counts& o) const;
  Counts& operator+=(const Counts& o);
  bool operator==(const Counts&) const = default;
};

// --- Rounds --------------------------------------------------------------

struct RoundSpec {
  std::uint64_t seed = 0;   ///< SystemConfig::seed of this round's machine
  std::uint64_t ops = 0;    ///< timed operations
  std::uint64_t warmup_ops = 0;
  Tracer* tracer = nullptr;
};

struct RoundResult {
  // Host clock (seconds, as measured).
  double build_s = 0, wire_s = 0, warmup_s = 0, run_s = 0;
  double setup_s() const { return build_s + wire_s + warmup_s; }
  /// Host speed around this round relative to the nominal host (see
  /// host_speed()); a measured host time times this is nominal seconds.
  double host_speed = 1;

  // Outcome: ops attempted/failed, and the invariants that did not hold.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  // Simulated clock.
  std::vector<double> op_ns;            ///< per-op latency sample
  std::vector<std::uint32_t> op_bytes;  ///< message size of each sample
  double msgs = 0;        ///< application messages the timed ops sent
  double op_time_ns = 0;  ///< simulated time those ops cover
  double timed_sim_ns = 0;  ///< simulated length of the timed phase
  /// Modelled per-op latency for each message size of the workload.
  std::vector<std::pair<std::uint32_t, double>> model_ns;
  /// Hash of the seed-generated size sequence.
  std::uint64_t size_seq_hash = 0;

  Counts delta;  ///< timed-phase activity
  std::uint64_t event_pool_chunks = 0;
  std::uint64_t frame_pool_fresh = 0;

  /// Records a failed invariant; every op of the round counts as failed.
  void fail(std::string why) {
    errors.push_back(std::move(why));
    failed = attempted;
  }
  /// Order-sensitive hash of the op latencies (determinism checks).
  std::uint64_t fingerprint() const;
};

/// Snapshot of a two-node testbed driven through the given MPI stacks.
Counts snapshot(bb::scenario::Testbed& tb,
                std::initializer_list<bb::scenario::MpiStack*> stacks);

/// Checks the invariants every quiescent machine must satisfy: wire
/// conservation (sent + duplicated == delivered + dropped + corrupted)
/// and no data packet left unacknowledged.
void check_quiescent(RoundResult& r, const bb::net::TransportStats& s,
                     std::size_t tx_unacked);

/// `n` message sizes: equal shares of `sizes`, shuffled by a stream
/// derived from (`seed`, `label`).
std::vector<std::uint32_t> size_sequence(std::span<const std::uint32_t> sizes,
                                         std::uint64_t seed, std::uint64_t label,
                                         std::uint64_t n);

/// Events one simulator may process before a phase counts as a livelock.
void arm_event_limit(bb::sim::Simulator& sim, std::uint64_t budget);

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h = 0xcbf29ce484222325ull);

double host_s_since(std::int64_t t0_ns);

/// Host seconds the reference kernel takes on the nominal host.
inline constexpr double kNominalKernelS = 0.010;

/// Runs the reference kernel and returns the host's current speed
/// relative to the nominal host (kNominalKernelS / measured seconds).
///
/// The machines this benchmark runs on share their cores' caches and
/// power budget with other tenants, so host speed drifts by tens of
/// percent over seconds. The kernel is fixed benchmark code (integer
/// multiply-adds and scattered loads over a 2 MiB table, a core's L2);
/// timing it before and after every round and
/// scaling that round's host times by it reports them in nominal-host
/// seconds, which cancels the drift without touching what is measured.
double host_speed();

struct Workload {
  const char* name;
  RoundResult (*run_round)(const RoundSpec&);
  std::uint64_t ops_per_round;
  std::uint64_t warmup_ops;
  /// Rounds whose simulated results feed the sim-clock metrics: enough
  /// ops that at least ten samples lie beyond the p99.
  int sim_rounds;
  /// Injection compares the model with the mean per-message time (as
  /// the OSU message-rate test reports it); latency workloads compare
  /// with the per-size median.
  bool model_vs_mean;
};

RoundResult run_inject(const RoundSpec& s);
RoundResult run_pingpong(const RoundSpec& s);
RoundResult run_allreduce(const RoundSpec& s);

}  // namespace perfbench
