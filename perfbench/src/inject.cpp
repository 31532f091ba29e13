// inject_8B: the paper's §6 injection path. The OSU message-rate loop
// (64-message MPI_Isend windows closed by MPI_Waitall, one CQE per 64
// sends) streams 8-byte messages from node 0's single core to a passive
// node 1 that keeps receives pre-posted.

#include <algorithm>

#include "bench.hpp"
#include "core/component_table.hpp"
#include "core/models.hpp"
#include "sim/pool.hpp"

namespace perfbench {
namespace {

using namespace bb;

constexpr std::uint32_t kWindow = 64;
constexpr std::uint32_t kBytes = 8;
/// The hot-loop calibration the repository's §6 message-rate reproduction
/// (bench::OsuMessageRate) runs the sender core at.
constexpr double kSpeedFactor = 1.007;
/// Livelock guard: a healthy message costs about 18 events.
constexpr std::uint64_t kEventBudgetPerMsg = 200;

/// Sends `windows` windows. `msg_ns` (timed phase only) receives each
/// window's per-message time on the sender's core clock.
sim::Task<void> send_windows(scenario::MpiStack& st, std::uint64_t windows, Tracer* tr,
                             std::vector<double>* msg_ns, std::uint64_t& failed) {
  cpu::Core& core = st.node().core;
  core.set_speed_factor(kSpeedFactor);
  std::vector<hlp::Request*> reqs;
  reqs.reserve(kWindow);
  for (std::uint64_t w = 0; w < windows; ++w) {
    const TimePs t0 = core.virtual_now();
    const auto op = span_begin(tr, SpanName::kOp, t0, -1, w);
    reqs.clear();
    for (std::uint32_t i = 0; i < kWindow; ++i) {
      const auto sp = span_begin(tr, SpanName::kIsend, core.virtual_now(), op, w);
      common::Expected<hlp::Request*> r = co_await st.mpi().isend(kBytes);
      span_end(tr, sp, core.virtual_now());
      if (r.ok()) {
        reqs.push_back(*r);
      } else {
        ++failed;
      }
    }
    core.consume(core.costs().loop_hiccup);
    const auto sp = span_begin(tr, SpanName::kWait, core.virtual_now(), op, w);
    if (co_await st.mpi().waitall(reqs) != common::Status::kOk) {
      for (const hlp::Request* q : reqs) failed += q->status != common::Status::kOk;
    }
    const TimePs t1 = core.virtual_now();
    span_end(tr, sp, t1);
    span_end(tr, op, t1);
    if (msg_ns) msg_ns->push_back((t1 - t0).to_ns() / kWindow);
  }
  core.set_speed_factor(1.0);
}

}  // namespace

RoundResult run_inject(const RoundSpec& s) {
  RoundResult r;
  const std::uint64_t windows = std::max<std::uint64_t>(1, s.ops / kWindow);
  const std::uint64_t warm = s.warmup_ops / kWindow;
  r.attempted = windows * kWindow;
  Tracer* tr = s.tracer;
  try {
    std::int64_t t = host_now_ns();
    auto sp = span_begin(tr, SpanName::kBuild, TimePs::zero());
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
    cfg.seed = s.seed;
    scenario::Testbed tb(cfg);
    tb.analyzer().set_enabled(false);
    sim::Simulator& sim = tb.sim();
    span_end(tr, sp, sim.now());
    r.build_s = host_s_since(t);

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWire, sim.now());
    scenario::MpiStack st(tb, 0, kWindow);
    tb.node(0).profiler.set_enabled(false);
    tb.node(1).profiler.set_enabled(false);
    tb.node(1).nic.post_receives(static_cast<std::uint32_t>((windows + warm + 1) * kWindow));
    span_end(tr, sp, sim.now());
    r.wire_s = host_s_since(t);

    t = host_now_ns();
    sp = span_begin(tr, SpanName::kWarmup, sim.now());
    std::uint64_t warm_failed = 0;
    sim.spawn(send_windows(st, warm, nullptr, nullptr, warm_failed), "inject-warmup");
    arm_event_limit(sim, (warm + 1) * kWindow * kEventBudgetPerMsg);
    sim.run();
    span_end(tr, sp, sim.now());
    r.warmup_s = host_s_since(t);
    if (warm_failed != 0) r.fail("warm-up sends failed");

    const Counts c0 = snapshot(tb, {&st});
    const std::uint64_t fresh0 = sim::detail::frame_pool_stats().fresh;
    r.op_ns.reserve(windows);
    std::uint64_t failed = 0;
    t = host_now_ns();
    const TimePs sim0 = sim.now();
    sp = span_begin(tr, SpanName::kSimRun, sim0);
    sim.spawn(send_windows(st, windows, tr, &r.op_ns, failed), "inject");
    arm_event_limit(sim, (windows + 1) * kWindow * kEventBudgetPerMsg);
    sim.run();
    span_end(tr, sp, sim.now());
    r.run_s = host_s_since(t);
    r.timed_sim_ns = (sim.now() - sim0).to_ns();
    r.frame_pool_fresh = sim::detail::frame_pool_stats().fresh - fresh0;
    r.delta = snapshot(tb, {&st}) - c0;
    r.event_pool_chunks = sim.event_pool_chunks();
    r.failed += failed;

    r.op_bytes.assign(r.op_ns.size(), kBytes);
    r.msgs = static_cast<double>(windows * kWindow);
    for (double v : r.op_ns) r.op_time_ns += v * kWindow;
    if (r.op_ns.size() != windows) r.fail("sender finished early");
    check_quiescent(r, tb.net_stats(),
                    tb.node(0).nic.tx_unacked() + tb.node(1).nic.tx_unacked());

    sp = span_begin(tr, SpanName::kModel, sim.now());
    const core::InjectionModel model(core::ComponentTable::from_config(cfg));
    r.model_ns = {{kBytes, model.overall_injection_ns()}};
    span_end(tr, sp, sim.now());
  } catch (const sim::EventLimitError& e) {
    r.fail(e.what());
  }
  return r;
}

}  // namespace perfbench
