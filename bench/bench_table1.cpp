// Reproduces Table 1: "Measured times of various components."
//
// Three columns are reported for every row: the paper's published value,
// the value our calibrated configuration implies, and the value actually
// *measured* inside the simulation using the paper's own methodology --
// UCS-style profiler wraps for software components (§3-§5) and analyzer-
// trace arithmetic for I/O and network components (§4.3).

#include <cstdio>

#include "benchlib/am_lat.hpp"
#include "core/analysis.hpp"
#include "core/component_table.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

namespace {

using namespace bb;
using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

constexpr int kSamples = 400;
constexpr int kIters = 200;
constexpr TimePs kPeriod = 10_us;

/// Measured LLP_post substeps + total + LLP_prog + busy post, via the
/// profiler around the relevant code paths (§4.1).
struct LlpMeasurement {
  double md_setup, barrier_md, barrier_dbc, pio_copy, misc, total, prog, busy;
};

LlpMeasurement measure_llp() {
  LlpMeasurement out{};
  // Substeps (one-at-a-time rule: a dedicated run).
  {
    Testbed tb(scenario::presets::thunderx2_cx4());
    tb.node(0).profiler.wrap(
        {prof::Site::kLlpPostSteps, prof::Site::kBusyPost});
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](Testbed::Node& n, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < kSamples; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await n.worker.progress();
        }
        if (i % 8 == 0) co_await n.worker.progress();
      }
      while (e.outstanding() > 0) co_await n.worker.progress();
    }(tb.node(0), ep));
    tb.sim().run();
    auto& prof = tb.node(0).profiler;
    out.md_setup = prof.mean_ns("MD setup");
    out.barrier_md = prof.mean_ns("Barrier for MD");
    out.barrier_dbc = prof.mean_ns("Barrier for DBC");
    out.pio_copy = prof.mean_ns("PIO copy");
    out.misc = prof.mean_ns("Other");
  }

  // LLP_post total + busy posts.
  {
    auto cfg = scenario::presets::thunderx2_cx4();
    cfg.endpoint.txq_depth = 16;  // force steady-state busy posts
    Testbed tb(cfg);
    tb.node(0).profiler.wrap({prof::Site::kLlpPost, prof::Site::kBusyPost});
    auto& ep = tb.add_endpoint(0);
    tb.sim().spawn([](Testbed::Node& n, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < kSamples; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await n.worker.progress(1);
        }
      }
      while (e.outstanding() > 0) co_await n.worker.progress();
    }(tb.node(0), ep));
    tb.sim().run();
    out.total = tb.node(0).profiler.mean_ns("LLP_post");
    out.busy = tb.node(0).profiler.mean_ns("Busy post");
  }

  // LLP_prog (per-CQE dequeue wrap).
  {
    auto cfg = scenario::presets::thunderx2_cx4();
    Testbed tb(cfg);
    auto& ep = tb.add_endpoint(0);
    tb.node(0).profiler.wrap({prof::Site::kLlpProg});
    tb.sim().spawn([](Testbed::Node& n, llp::Endpoint& e) -> sim::Task<void> {
      for (int i = 0; i < kSamples; ++i) {
        while (co_await e.put_short(8) != llp::Status::kOk) {
          co_await n.worker.progress(1);
        }
        if (i % 4 == 0) co_await n.worker.progress(2);
      }
      while (e.outstanding() > 0) co_await n.worker.progress();
    }(tb.node(0), ep));
    tb.sim().run();
    out.prog = tb.node(0).profiler.mean_ns("LLP_prog");
  }
  return out;
}

/// Trace-methodology measurements on an am_lat run (§4.3).
struct IoMeasurement {
  double pcie, network, wire, switch_lat, rc_to_mem_8b;
};

IoMeasurement measure_io() {
  IoMeasurement out{};
  auto run = [](int switches) {
    auto cfg = scenario::presets::thunderx2_cx4();
    cfg.net.num_switches = switches;
    Testbed tb(cfg);
    bench::AmLatBenchmark am(tb, {.iterations = 400,
                                  .warmup = 50,
                                  .bytes = 8,
                                  .speed_factor = 1.0,
                                  .capture_trace = true});
    auto res = am.run();
    struct R {
      double lat, pcie, network, rc;
    } r;
    r.lat = res.adjusted_mean_ns;
    r.pcie = core::measured_pcie(am.trace()).summarize().mean;
    r.network = core::measured_network(am.trace()).summarize().mean;
    const auto table = core::ComponentTable::from_config(tb.config());
    // The pong->ping delta also contains the benchmark's measurement
    // update (it sits between receiving the pong and posting the next
    // ping), so it is deducted alongside LLP_post (§4.3's Fig. 9 path).
    r.rc = core::measured_rc_to_mem(
               am.trace(), r.pcie,
               table.llp_post() + table.measurement_update, table.llp_prog)
               .summarize()
               .mean;
    return r;
  };
  const auto with_switch = run(1);
  const auto direct = run(0);
  out.pcie = with_switch.pcie;
  out.network = with_switch.network;
  // §4.3: Switch = difference of the two latency measurements; Wire is
  // the direct-connection network time.
  out.switch_lat = core::measured_switch(with_switch.lat, direct.lat);
  out.wire = with_switch.network - out.switch_lat;
  out.rc_to_mem_8b = with_switch.rc;
  return out;
}

/// HLP measurements via subtraction between layers (§5).
struct HlpMeasurement {
  double mpich_isend, ucp_isend;
  double mpich_wait, ucp_wait, mpich_cb, ucp_cb, mpich_after;
};

HlpMeasurement measure_hlp() {
  HlpMeasurement out{};
  // A "successful wait" scenario generator: sender fires a message, the
  // receiver idles past its arrival, then waits. One wrap per run.
  auto run_rx = [&](prof::Site site) {
    Testbed tb(scenario::presets::thunderx2_cx4());
    MpiStack tx(tb, 0);
    MpiStack rx(tb, 1);
    tb.node(1).nic.post_receives(kIters + 2);
    tb.node(1).profiler.wrap({site});

    // Absolute-time schedule so the two loops cannot drift: in cycle i the
    // sender fires at i*10us, the message lands ~1.5us later, and the
    // receiver enters MPI_Wait at i*10us + 5us -- always a successful
    // first-pass wait.
    auto until = [](Testbed& t, TimePs target) -> sim::Task<void> {
      if (target > t.sim().now()) co_await t.sim().delay(target - t.sim().now());
    };
    tb.sim().spawn([](Testbed& t, MpiStack& st, auto sync) -> sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        co_await sync(t, kPeriod * i);
        (void)co_await st.mpi().isend(8);
        // Keep the sender's CQ drained so the TxQ never saturates.
        co_await st.ucp().progress();
        co_await st.node().core.flush();
      }
    }(tb, tx, until));
    tb.sim().spawn([](Testbed& t, MpiStack& st, auto sync) -> sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        hlp::Request* r = st.mpi().irecv(8).value();
        co_await st.node().core.flush();
        co_await sync(t, kPeriod * i + 5_us);
        co_await st.mpi().wait(r);
      }
    }(tb, rx, until));
    tb.sim().run();
    return tb.node(1).profiler.mean_ns(prof::region_name(site));
  };

  const double wait_total = run_rx(prof::Site::kMpiWait);
  const double ucp_prog = run_rx(prof::Site::kUcpWorkerProgress);
  const double uct_prog = run_rx(prof::Site::kUctWorkerProgress);
  out.mpich_cb = run_rx(prof::Site::kMpichCallback);
  out.ucp_cb = run_rx(prof::Site::kUcpCallback);
  out.mpich_after = run_rx(prof::Site::kMpichAfterProgress);
  // §5: layer time = upper total - lower total + upper's callback.
  out.mpich_wait = wait_total - ucp_prog + out.mpich_cb;
  out.ucp_wait = ucp_prog - uct_prog + out.ucp_cb;

  // Isend split (dedicated runs, sender side).
  auto run_tx = [&](prof::Site site) {
    Testbed tb(scenario::presets::thunderx2_cx4());
    MpiStack tx(tb, 0);
    tb.node(1).nic.post_receives(kIters + 8);
    tb.node(0).profiler.wrap({site});
    tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
      std::vector<hlp::Request*> reqs;
      for (int i = 0; i < kIters; ++i) {
        reqs.push_back((co_await st.mpi().isend(8)).value());
        if (i % 32 == 31) {
          co_await st.mpi().waitall(reqs);
          reqs.clear();
          // Drain CQEs so no isend in the measured stream hits a busy
          // post (which would contaminate the MPI_Isend mean).
          co_await st.ucp().progress();
        }
      }
      co_await st.mpi().waitall(reqs);
    }(tx));
    tb.sim().run();
    return tb.node(0).profiler.mean_ns(prof::region_name(site));
  };
  const double isend_total = run_tx(prof::Site::kMpiIsend);
  const double ucp_send = run_tx(prof::Site::kUcpTagSendNb);

  // uct share of the send path: measured in the LLP run (LLP_post).
  Testbed tb(scenario::presets::deterministic());
  const double llp_post =
      core::ComponentTable::from_config(tb.config()).llp_post();
  out.mpich_isend = isend_total - ucp_send;
  out.ucp_isend = ucp_send - llp_post;
  return out;
}

}  // namespace

int main() {
  bbench::header("bench_table1 -- measured times of various components",
                 "Table 1 (plus the §4.3/§5 measurement methodology)");

  const auto paper = bb::core::ComponentTable::paper();
  const auto config = bb::core::ComponentTable::from_config(
      bb::scenario::presets::thunderx2_cx4());

  std::printf("Measuring LLP components (profiler wraps)...\n");
  const LlpMeasurement llp = measure_llp();
  std::printf("Measuring I/O + network components (analyzer traces)...\n");
  const IoMeasurement io = measure_io();
  std::printf("Measuring HLP components (layer subtraction)...\n\n");
  const HlpMeasurement hlp = measure_hlp();

  auto measured = config;
  measured.md_setup = llp.md_setup;
  measured.barrier_md = llp.barrier_md;
  measured.barrier_dbc = llp.barrier_dbc;
  measured.pio_copy = llp.pio_copy;
  measured.llp_post_misc = llp.misc;
  measured.llp_prog = llp.prog;
  measured.busy_post = llp.busy;
  measured.pcie = io.pcie;
  measured.wire = io.wire;
  measured.switch_lat = io.switch_lat;
  measured.rc_to_mem_8b = io.rc_to_mem_8b;
  measured.mpich_isend = hlp.mpich_isend;
  measured.ucp_isend = hlp.ucp_isend;
  measured.mpich_rx_cb = hlp.mpich_cb;
  measured.ucp_rx_cb = hlp.ucp_cb;
  measured.mpich_after_progress = hlp.mpich_after;
  measured.mpich_wait_total = hlp.mpich_wait;
  measured.ucp_wait_total = hlp.ucp_wait;

  std::printf("%s\n", paper.render(&measured, "paper", "measured").c_str());
  std::printf("(profiled LLP_post total, dedicated run: %.2f ns)\n\n",
              llp.total);

  bbench::Validator v;
  v.within("MD setup", llp.md_setup, paper.md_setup, 0.05);
  v.within("Barrier for MD", llp.barrier_md, paper.barrier_md, 0.05);
  v.within("Barrier for DBC", llp.barrier_dbc, paper.barrier_dbc, 0.05);
  v.within("PIO copy", llp.pio_copy, paper.pio_copy, 0.05);
  v.within("LLP_post misc", llp.misc, paper.llp_post_misc, 0.06);
  v.within("LLP_post total", llp.total, paper.llp_post(), 0.05);
  v.within("LLP_prog", llp.prog, paper.llp_prog, 0.05);
  v.within("Busy post", llp.busy, paper.busy_post, 0.12);
  v.within("PCIe", io.pcie, paper.pcie, 0.03);
  v.within("Switch", io.switch_lat, paper.switch_lat, 0.06);
  // Wire carries the methodology's NIC-processing contamination.
  v.within("Wire (methodology)", io.wire, paper.wire, 0.15);
  v.within("RC-to-MEM(8B)", io.rc_to_mem_8b, paper.rc_to_mem_8b, 0.15);
  v.within("MPI_Isend in MPICH", hlp.mpich_isend, paper.mpich_isend, 0.12);
  // 2.19 ns is below the run-to-run noise of a subtracted mean; check
  // absolutely.
  v.is_true("MPI_Isend in UCP (within 2.5 ns)",
            std::abs(hlp.ucp_isend - paper.ucp_isend) < 2.5);
  v.within("MPICH rx callback", hlp.mpich_cb, paper.mpich_rx_cb, 0.06);
  v.within("UCP rx callback", hlp.ucp_cb, paper.ucp_rx_cb, 0.05);
  v.within("MPICH after progress", hlp.mpich_after,
           paper.mpich_after_progress, 0.06);
  v.within("MPI_Wait in MPICH", hlp.mpich_wait, paper.mpich_wait_total, 0.06);
  v.within("MPI_Wait in UCP", hlp.ucp_wait, paper.ucp_wait_total, 0.06);
  return v.finish();
}
