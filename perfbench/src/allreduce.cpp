// allreduce_16r: the OSU allreduce loop on a 16-rank Cluster. Sizes are
// 8 B, 256 B and 4 KiB in equal shares, in an order drawn from the
// round's seed; they cross both the recursive-doubling -> ring and the
// eager -> rendezvous switches. Each iteration synchronises with a
// barrier, aligns every rank to a common epoch tick (as bench::OsuColl
// does), and times the collective as last rank in -> last rank out.

#include <algorithm>

#include "bench.hpp"
#include "coll/coll.hpp"
#include "model/alpha_beta.hpp"
#include "sim/pool.hpp"

namespace perfbench {
namespace {

using namespace bb;

constexpr int kRanks = 16;
constexpr std::uint32_t kSizes[] = {8, 256, 4096};
/// Livelock guard per collective (all ranks, barrier included).
constexpr std::uint64_t kEventBudgetPerOp = 100000;
constexpr std::uint64_t kWarmupLabel = 0xA11E;
constexpr std::uint64_t kTimedLabel = 0xA11F;

/// Rank r's contribution to element i of iteration it; the sum over ranks
/// is exact in double precision.
double contribution(int r, std::uint64_t it, std::uint32_t i) {
  return static_cast<double>(r + 1) + static_cast<double>((it + i) % 17);
}

struct Loop {
  coll::World& world;
  const std::vector<std::uint32_t>& sizes;
  double epoch_ns;
  TimePs base;
  Tracer* tr;
  // Indexed [rank][iteration] (core clock, ns).
  std::vector<std::vector<double>> start, end;
  std::vector<std::uint8_t> op_failed;
  std::uint64_t msgs = 0;  // isends issued inside the collectives
};

sim::Task<void> rank_loop(Loop& L, int r) {
  coll::Communicator& c = L.world.comm(r);
  cpu::Core& core = c.core();
  sim::Simulator& sim = L.world.cluster().sim();
  const auto ur = static_cast<std::size_t>(r);
  for (std::uint64_t it = 0; it < L.sizes.size(); ++it) {
    const std::uint32_t bytes = L.sizes[it];
    const auto op = span_begin(L.tr, SpanName::kOp, core.virtual_now(), -1, it, r);
    auto sp = span_begin(L.tr, SpanName::kBarrier, core.virtual_now(), op, it, r);
    co_await coll::barrier(c);
    span_end(L.tr, sp, core.virtual_now());
    const TimePs target =
        L.base + TimePs::from_ns(L.epoch_ns * static_cast<double>(it + 1));
    if (core.virtual_now() < target) {
      co_await sim.delay(target - core.virtual_now());
    } else {
      L.op_failed[it] = 1;  // the epoch is too short to align the ranks
    }

    std::vector<double> v(bytes / 8);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = contribution(r, it, i);
    const std::uint64_t isends0 = c.isends();
    const TimePs t0 = core.virtual_now();
    sp = span_begin(L.tr, SpanName::kAllreduce, t0, op, it, r);
    co_await coll::allreduce(c, bytes, v, coll::ReduceOp::kSum);
    const TimePs t1 = core.virtual_now();
    span_end(L.tr, sp, t1);
    span_end(L.tr, op, t1);
    L.msgs += c.isends() - isends0;
    L.start[ur][it] = t0.to_ns();
    L.end[ur][it] = t1.to_ns();
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      double want = 0;
      for (int q = 0; q < kRanks; ++q) want += contribution(q, it, i);
      if (v[i] != want) L.op_failed[it] = 1;
    }
  }
}

/// Runs every rank through `sizes` and returns once the machine is quiescent.
void run_loop(Loop& L) {
  const std::size_t n = L.sizes.size();
  L.start.assign(kRanks, std::vector<double>(n, 0.0));
  L.end.assign(kRanks, std::vector<double>(n, -1.0));
  L.op_failed.assign(n, 0);
  sim::Simulator& sim = L.world.cluster().sim();
  L.base = sim.now();
  for (int r = 0; r < kRanks; ++r) sim.spawn(rank_loop(L, r), "allreduce-rank");
  arm_event_limit(sim, (n + 1) * kEventBudgetPerOp);
  sim.run();
}

Counts snapshot(scenario::Cluster& cl, coll::World& w) {
  Counts c;
  c.events = cl.sim().events_processed();
  for (int r = 0; r < kRanks; ++r) {
    c.add_node(cl.node(r));
    c.isends += w.comm(r).isends();
    c.waits += w.comm(r).waits();
  }
  c.set_net(cl.net_stats());
  c.cpu0_busy_ps = static_cast<std::uint64_t>(cl.node(0).core.busy_time().ps());
  // Per-peer UCP workers are private to the communicator; infer the
  // rendezvous sends from the wire instead: an eager send is one NIC
  // message, a rendezvous send four (RTS, CTS, data put, FIN).
  c.rndv_sends = (c.nic_msgs - c.isends) / 3;
  return c;
}

}  // namespace

RoundResult run_allreduce(const RoundSpec& s) {
  RoundResult r;
  r.attempted = s.ops;
  Tracer* tr = s.tracer;
  try {
    std::int64_t t = host_now_ns();
    auto sp = span_begin(tr, SpanName::kBuild, TimePs::zero());
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
    cfg.seed = s.seed;
    scenario::Cluster cl(cfg, kRanks);
    cl.analyzer().set_enabled(false);
    sim::Simulator& sim = cl.sim();
    span_end(tr, sp, sim.now());
    r.build_s = host_s_since(t);

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWire, sim.now());
    coll::World::Config wc;
    // Every message (rendezvous control included) consumes a receive; a
    // 4 KiB ring allreduce plus its barrier receives ~40 per rank.
    wc.preposted_receives = static_cast<std::uint32_t>(64 * (s.ops + s.warmup_ops) + 1024);
    coll::World world(cl, wc);
    for (int n = 0; n < kRanks; ++n) cl.node(n).profiler.set_enabled(false);
    const auto warm_sizes = size_sequence(kSizes, s.seed, kWarmupLabel, s.warmup_ops);
    const auto sizes = size_sequence(kSizes, s.seed, kTimedLabel, s.ops);
    r.size_seq_hash = fnv1a(sizes.data(), sizes.size() * sizeof(std::uint32_t));
    span_end(tr, sp, sim.now());
    r.wire_s = host_s_since(t);

    // The model also sizes the epoch: well above barrier + slowest
    // collective, so every rank reaches each tick early.
    sp = span_begin(tr, SpanName::kModel, sim.now());
    const model::CollModel model(cfg, wc.rndv_threshold);
    double slowest = 0;
    for (std::uint32_t m : kSizes) {
      r.model_ns.emplace_back(m, model.allreduce_ns(kRanks, m));
      slowest = std::max(slowest, r.model_ns.back().second);
    }
    const double epoch_ns = 3.0 * (model.barrier_ns(kRanks) + slowest);
    span_end(tr, sp, sim.now());

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWarmup, sim.now());
    Loop warm{world, warm_sizes, epoch_ns, TimePs::zero(), nullptr, {}, {}, {}, 0};
    run_loop(warm);
    span_end(tr, sp, sim.now());
    r.warmup_s = host_s_since(t);
    if (std::count(warm.op_failed.begin(), warm.op_failed.end(), 1) != 0) {
      r.fail("warm-up collectives failed");
    }

    const Counts c0 = snapshot(cl, world);
    const std::uint64_t fresh0 = sim::detail::frame_pool_stats().fresh;
    Loop L{world, sizes, epoch_ns, TimePs::zero(), tr, {}, {}, {}, 0};
    t = host_now_ns();
    const TimePs sim0 = sim.now();
    sp = span_begin(tr, SpanName::kSimRun, sim0);
    run_loop(L);
    span_end(tr, sp, sim.now());
    r.run_s = host_s_since(t);
    r.timed_sim_ns = (sim.now() - sim0).to_ns();
    r.frame_pool_fresh = sim::detail::frame_pool_stats().fresh - fresh0;
    r.delta = snapshot(cl, world) - c0;
    r.event_pool_chunks = sim.event_pool_chunks();

    r.op_ns.reserve(s.ops);
    for (std::uint64_t it = 0; it < s.ops; ++it) {
      double last_in = 0, last_out = 0;
      bool done = true;
      for (int q = 0; q < kRanks; ++q) {
        last_in = std::max(last_in, L.start[static_cast<std::size_t>(q)][it]);
        last_out = std::max(last_out, L.end[static_cast<std::size_t>(q)][it]);
        done = done && L.end[static_cast<std::size_t>(q)][it] >= 0;
      }
      if (!done) {
        r.fail("collective " + std::to_string(it) + " did not finish on every rank");
        break;
      }
      r.failed += L.op_failed[it];
      r.op_ns.push_back(last_out - last_in);
      r.op_bytes.push_back(sizes[it]);
      r.op_time_ns += last_out - last_in;
    }
    r.msgs = static_cast<double>(L.msgs);
    std::size_t unacked = 0;
    for (int n = 0; n < kRanks; ++n) unacked += cl.node(n).nic.tx_unacked();
    check_quiescent(r, cl.net_stats(), unacked);
  } catch (const sim::EventLimitError& e) {
    r.fail(e.what());
  }
  return r;
}

}  // namespace perfbench
