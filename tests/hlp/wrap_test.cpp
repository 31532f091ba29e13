// Profiler wrap points across the HLP stack: the §5 measurement
// methodology's instrumentation hooks, exercised one at a time.

#include <gtest/gtest.h>

#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;
using namespace bb::literals;

/// One successful-wait cycle: sender fires, receiver idles past arrival,
/// then waits. Returns the profiler mean for `site` on node 1.
double measure_rx_region(prof::Site site) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack tx(tb, 0);
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(8);
  tb.node(1).profiler.wrap({site});

  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await st.mpi().isend(8);
      co_await st.ucp().progress();
      co_await st.node().core.flush();
      co_await st.node().core.simulator().delay(10_us);
    }
  }(tx));
  tb.sim().spawn([](Testbed& t, MpiStack& st) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      Request* r = st.mpi().irecv(8).value();
      co_await st.node().core.flush();
      const TimePs target = TimePs::from_ns(10e3) * i + 5_us;
      if (target > t.sim().now()) co_await t.sim().delay(target - t.sim().now());
      co_await st.mpi().wait(r);
    }
  }(tb, rx));
  tb.sim().run();
  return tb.node(1).profiler.mean_ns(prof::region_name(site));
}

TEST(HlpWraps, MpiWaitTotalIs505_43) {
  // 208.41 + 10.73 + 61.63 + 139.78 + 47.99 + 36.89.
  EXPECT_NEAR(measure_rx_region(prof::Site::kMpiWait), 505.43, 1e-6);
}

TEST(HlpWraps, UcpProgressIncludesNestedUctPass) {
  // ucp_progress_iter 10.73 + the full UCT pass (LLP_prog 61.63 and both
  // registered callbacks 139.78 + 47.99, which §5 notes execute before
  // uct_worker_progress returns) = 260.13.
  EXPECT_NEAR(measure_rx_region(prof::Site::kUcpWorkerProgress), 260.13,
              1e-6);
}

TEST(HlpWraps, UctProgressIncludesCallbackChain) {
  const double uct = measure_rx_region(prof::Site::kUctWorkerProgress);
  // LLP_prog + UCP callback + MPICH callback execute inside the pass.
  EXPECT_NEAR(uct, 61.63 + 139.78 + 47.99, 1e-6);
}

TEST(HlpWraps, SubtractionRecoversPaperLayerTimes) {
  const double wait = measure_rx_region(prof::Site::kMpiWait);
  const double ucp = measure_rx_region(prof::Site::kUcpWorkerProgress);
  const double uct = measure_rx_region(prof::Site::kUctWorkerProgress);
  const double mpich_cb = measure_rx_region(prof::Site::kMpichCallback);
  const double ucp_cb = measure_rx_region(prof::Site::kUcpCallback);

  // §5's arithmetic: MPICH share = wait - ucp + MPICH callback = 293.29;
  // UCP share = ucp - uct + UCP-alone callback... the published 150.51
  // counts the UCP callback excluding the nested MPICH callback.
  EXPECT_NEAR(wait - ucp + mpich_cb, 293.29, 1e-6);
  EXPECT_NEAR(ucp - uct + ucp_cb, 150.51, 1e-6);
}

TEST(HlpWraps, CallbackRegionsMatchTable1) {
  EXPECT_NEAR(measure_rx_region(prof::Site::kMpichCallback), 47.99, 1e-6);
  EXPECT_NEAR(measure_rx_region(prof::Site::kUcpCallback), 139.78, 1e-6);
  EXPECT_NEAR(measure_rx_region(prof::Site::kMpichAfterProgress),
              36.89, 1e-6);
}

}  // namespace
}  // namespace bb::hlp
