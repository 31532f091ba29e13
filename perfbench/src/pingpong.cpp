// pingpong_mix_lossy: a blocking MPI ping-pong (one message in flight)
// over a fabric that drops 1% of packets. Message sizes are 8 B (inline
// PIO), 512 B (DMA payload fetch) and 16 KiB (rendezvous) in equal shares,
// in an order drawn from the round's seed.
//
// Both sides wait on every send request, as bench_sweep_protocol does: a
// rendezvous send only progresses while its owner drives the progress
// engine, so a loop that never waits on its sends (bench::OsuLatency)
// leaves the last RTS unanswered and livelocks at >= 1 KiB.

#include "bench.hpp"
#include "model/alpha_beta.hpp"
#include "sim/pool.hpp"

namespace perfbench {
namespace {

using namespace bb;

constexpr std::uint32_t kSizes[] = {8, 512, 16384};
constexpr double kDropProb = 1e-2;
/// Livelock guard: generous even for a 16 KiB rendezvous that loses
/// several packets to the wire.
constexpr std::uint64_t kEventBudgetPerOp = 5000;
constexpr std::uint64_t kWarmupLabel = 0x57A2;
constexpr std::uint64_t kTimedLabel = 0x71ED;

struct Side {
  scenario::MpiStack& st;
  int rank;
  Tracer* tr;
  std::uint64_t failed = 0;
};

/// One blocking send, waited on. Returns false when it failed.
sim::Task<bool> send_waited(Side& s, std::uint32_t n, std::int32_t op, std::uint64_t i) {
  cpu::Core& core = s.st.node().core;
  auto sp = span_begin(s.tr, SpanName::kIsend, core.virtual_now(), op, i, s.rank);
  common::Expected<hlp::Request*> req = co_await s.st.mpi().isend(n);
  span_end(s.tr, sp, core.virtual_now());
  if (!req.ok()) co_return false;
  sp = span_begin(s.tr, SpanName::kWait, core.virtual_now(), op, i, s.rank);
  const common::Status st = co_await s.st.mpi().wait(*req);
  span_end(s.tr, sp, core.virtual_now());
  co_return st == common::Status::kOk;
}

sim::Task<bool> recv_waited(Side& s, hlp::Request* rr, std::int32_t op, std::uint64_t i) {
  cpu::Core& core = s.st.node().core;
  const auto sp = span_begin(s.tr, SpanName::kWait, core.virtual_now(), op, i, s.rank);
  const common::Status st = co_await s.st.mpi().wait(rr);
  span_end(s.tr, sp, core.virtual_now());
  co_return st == common::Status::kOk;
}

/// Rank 0: times each round trip; `half_rtt` (timed phase only) receives
/// half of it on the initiator's core clock.
sim::Task<void> initiator(Side& s, const std::vector<std::uint32_t>& sizes,
                          std::vector<double>* half_rtt) {
  cpu::Core& core = s.st.node().core;
  for (std::uint64_t i = 0; i < sizes.size(); ++i) {
    const TimePs t0 = core.virtual_now();
    const auto op = span_begin(s.tr, SpanName::kOp, t0, -1, i, s.rank);
    common::Expected<hlp::Request*> rr = s.st.mpi().irecv(sizes[i]);
    if (!rr.ok()) {
      s.failed += sizes.size() - i;
      co_return;
    }
    bool ok = co_await send_waited(s, sizes[i], op, i);
    ok = co_await recv_waited(s, *rr, op, i) && ok;
    const TimePs t1 = core.virtual_now();
    span_end(s.tr, op, t1);
    s.failed += !ok;
    if (half_rtt) half_rtt->push_back((t1 - t0).to_ns() / 2.0);
  }
}

/// Rank 1: echoes each message back at the same size.
sim::Task<void> responder(Side& s, const std::vector<std::uint32_t>& sizes) {
  for (std::uint64_t i = 0; i < sizes.size(); ++i) {
    common::Expected<hlp::Request*> rr = s.st.mpi().irecv(sizes[i]);
    if (!rr.ok()) {
      s.failed += sizes.size() - i;
      co_return;
    }
    bool ok = co_await recv_waited(s, *rr, -1, i);
    ok = co_await send_waited(s, sizes[i], -1, i) && ok;
    s.failed += !ok;
  }
}

}  // namespace

RoundResult run_pingpong(const RoundSpec& s) {
  RoundResult r;
  r.attempted = s.ops;
  Tracer* tr = s.tracer;
  try {
    std::int64_t t = host_now_ns();
    auto sp = span_begin(tr, SpanName::kBuild, TimePs::zero());
    scenario::SystemConfig cfg =
        scenario::presets::thunderx2_cx4().with(scenario::overlays::wire_loss(kDropProb));
    cfg.seed = s.seed;
    scenario::Testbed tb(cfg);
    tb.analyzer().set_enabled(false);
    sim::Simulator& sim = tb.sim();
    span_end(tr, sp, sim.now());
    r.build_s = host_s_since(t);

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWire, sim.now());
    scenario::MpiStack a(tb, 0);
    scenario::MpiStack b(tb, 1);
    const auto warm_sizes = size_sequence(kSizes, s.seed, kWarmupLabel, s.warmup_ops);
    const auto sizes = size_sequence(kSizes, s.seed, kTimedLabel, s.ops);
    r.size_seq_hash = fnv1a(sizes.data(), sizes.size() * sizeof(std::uint32_t));
    // Every message (rendezvous control included) consumes a receive.
    const auto rq = static_cast<std::uint32_t>(4 * (s.ops + s.warmup_ops) + 64);
    for (int n = 0; n < 2; ++n) {
      tb.node(n).profiler.set_enabled(false);
      tb.node(n).nic.post_receives(rq);
    }
    span_end(tr, sp, sim.now());
    r.wire_s = host_s_since(t);

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWarmup, sim.now());
    Side wa{a, 0, nullptr}, wb{b, 1, nullptr};
    sim.spawn(initiator(wa, warm_sizes, nullptr), "pingpong-warmup-0");
    sim.spawn(responder(wb, warm_sizes), "pingpong-warmup-1");
    arm_event_limit(sim, (s.warmup_ops + 1) * kEventBudgetPerOp);
    sim.run();
    span_end(tr, sp, sim.now());
    r.warmup_s = host_s_since(t);
    if (wa.failed + wb.failed != 0) r.fail("warm-up round trips failed");

    const Counts c0 = snapshot(tb, {&a, &b});
    const std::uint64_t fresh0 = sim::detail::frame_pool_stats().fresh;
    r.op_ns.reserve(s.ops);
    Side sa{a, 0, tr}, sb{b, 1, tr};
    t = host_now_ns();
    const TimePs sim0 = sim.now();
    sp = span_begin(tr, SpanName::kSimRun, sim0);
    sim.spawn(initiator(sa, sizes, &r.op_ns), "pingpong-0");
    sim.spawn(responder(sb, sizes), "pingpong-1");
    arm_event_limit(sim, (s.ops + 1) * kEventBudgetPerOp);
    sim.run();
    span_end(tr, sp, sim.now());
    r.run_s = host_s_since(t);
    r.timed_sim_ns = (sim.now() - sim0).to_ns();
    r.frame_pool_fresh = sim::detail::frame_pool_stats().fresh - fresh0;
    r.delta = snapshot(tb, {&a, &b}) - c0;
    r.event_pool_chunks = sim.event_pool_chunks();
    r.failed += std::max(sa.failed, sb.failed);

    r.op_bytes.assign(sizes.begin(), sizes.begin() + static_cast<std::ptrdiff_t>(r.op_ns.size()));
    r.msgs = 2.0 * static_cast<double>(r.op_ns.size());
    for (double v : r.op_ns) r.op_time_ns += 2.0 * v;
    if (r.op_ns.size() != s.ops) r.fail("initiator finished early");
    check_quiescent(r, tb.net_stats(),
                    tb.node(0).nic.tx_unacked() + tb.node(1).nic.tx_unacked());

    sp = span_begin(tr, SpanName::kModel, sim.now());
    const model::PtPtModel model(cfg);
    for (std::uint32_t m : kSizes) r.model_ns.emplace_back(m, model.msg_ns(m));
    span_end(tr, sp, sim.now());
  } catch (const sim::EventLimitError& e) {
    r.fail(e.what());
  }
  return r;
}

}  // namespace perfbench
