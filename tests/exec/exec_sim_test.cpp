// Simulation-level guarantees of bb::exec: running whole simulators as
// jobs reproduces the determinism goldens bit-for-bit at any thread
// count, and two simulators on two raw threads share no state (the
// ThreadSanitizer target -- see the tsan job in ci.yml).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "exec/sweep.hpp"
#include "pcie/trace.hpp"
#include "scenario/cluster.hpp"
#include "scenario/testbed.hpp"

namespace bb {
namespace {

// FNV-1a over the analyzer trace (same mix as the determinism goldens).
std::uint64_t trace_checksum(const pcie::Trace& tr) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : tr.records()) {
    mix(static_cast<std::uint64_t>(r.t.ps()));
    mix(static_cast<std::uint64_t>(r.dir));
    mix(static_cast<std::uint64_t>(r.is_dllp));
    mix(static_cast<std::uint64_t>(r.tlp_type));
    mix(static_cast<std::uint64_t>(r.dllp_type));
    mix(r.bytes);
    mix(r.tag);
    mix(r.msg_id);
    for (char c : r.kind) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  return h;
}

using Fingerprint = std::tuple<std::uint64_t, std::int64_t, std::uint64_t>;

Fingerprint run_put_bw() {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::PutBwBenchmark b(
      tb, {.messages = 2000, .warmup = 200, .capture_trace = true});
  (void)b.run();
  return {tb.sim().events_processed(), tb.sim().now().ps(),
          trace_checksum(tb.analyzer().trace())};
}

Fingerprint run_am_lat() {
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  bench::AmLatBenchmark b(
      tb, {.iterations = 500, .warmup = 50, .capture_trace = true});
  (void)b.run();
  return {tb.sim().events_processed(), tb.sim().now().ps(),
          trace_checksum(tb.analyzer().trace())};
}

Fingerprint run_allreduce() {
  scenario::Cluster cl(scenario::presets::thunderx2_cx4(), 8);
  cl.analyzer().set_enabled(true);
  coll::World world(cl);
  bench::OsuCollConfig cfg;
  cfg.bytes = 256;
  cfg.iterations = 20;
  cfg.warmup = 5;
  bench::OsuColl b(world, bench::OsuColl::Kind::kAllreduce, cfg);
  (void)b.run();
  return {cl.sim().events_processed(), cl.sim().now().ps(),
          trace_checksum(cl.analyzer().trace())};
}

// The exact constants from tests/integration/determinism_golden_test.cpp.
// Reproducing them from *inside pool workers* proves a parallel sweep
// computes the same simulation a serial run does -- not merely a
// self-consistent one.
const Fingerprint kPutBwGolden{37281u, 623024806, 0x4b310291a8770261ull};
const Fingerprint kAmLatGolden{145947u, 1319178710, 0x99a7aa2d313a960eull};
const Fingerprint kAllreduceGolden{13708u, 25006013113, 0x1c3fe29c0a532d44ull};

Fingerprint run_kind(std::size_t kind) {
  switch (kind) {
    case 0: return run_put_bw();
    case 1: return run_am_lat();
    default: return run_allreduce();
  }
}

TEST(ExecSim, ParallelMatchesSerialOnDeterminismGoldens) {
  // The same 6-job batch (each golden twice) at 1 and 4 threads.
  const auto body = [](exec::Job& job) { return run_kind(job.index() % 3); };
  const auto serial = exec::run(6, /*seed=*/42, body, {.jobs = 1});
  const auto parallel = exec::run(6, /*seed=*/42, body, {.jobs = 4});
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  EXPECT_EQ(serial.values, parallel.values);
  EXPECT_EQ(serial.values[0], kPutBwGolden);
  EXPECT_EQ(serial.values[1], kAmLatGolden);
  EXPECT_EQ(serial.values[2], kAllreduceGolden);
  EXPECT_EQ(parallel.values[3], kPutBwGolden);
  EXPECT_EQ(parallel.values[4], kAmLatGolden);
  EXPECT_EQ(parallel.values[5], kAllreduceGolden);
}

TEST(ExecSim, JobStatsReflectSimulatorTotals) {
  const auto res = exec::run(
      2, /*seed=*/42,
      [](exec::Job& job) {
        scenario::Testbed tb(scenario::presets::thunderx2_cx4());
        bench::AmLatBenchmark b(tb, {.iterations = 100, .warmup = 10});
        (void)b.run();
        job.note_events(tb.sim().events_processed());
        job.note_sim_time_ps(tb.sim().now().ps());
        return 0;
      },
      {.jobs = 2});
  EXPECT_EQ(res.stats[0].events, res.stats[1].events);
  EXPECT_GT(res.stats[0].events, 0u);
  EXPECT_EQ(res.stats[0].sim_time_ps, res.stats[1].sim_time_ps);
  EXPECT_EQ(res.total_events(), res.stats[0].events * 2);
}

TEST(ExecSim, ErrorInOneSimJobCancelsAndPropagates) {
  struct SimFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  try {
    (void)exec::run(
        8, /*seed=*/42,
        [](exec::Job& job) -> int {
          if (job.index() == 1) throw SimFailure("nic wedge");
          scenario::Testbed tb(scenario::presets::deterministic());
          bench::AmLatBenchmark b(tb, {.iterations = 20, .warmup = 2});
          (void)b.run();
          return 0;
        },
        {.jobs = 2});
    FAIL() << "expected SimFailure";
  } catch (const SimFailure& e) {
    EXPECT_STREQ(e.what(), "nic wedge");
  }
}

// The TSan stress target: two full simulators on two *raw* std::threads,
// no pool in between. Any shared mutable state anywhere under sim/,
// pcie/, nic/, llp/, scenario/ shows up here as a data race.
TEST(ExecSim, TwoSimulatorsOnTwoRawThreadsDontInterfere) {
  Fingerprint a{}, b{};
  std::thread ta([&a] { a = run_am_lat(); });
  std::thread tb([&b] { b = run_put_bw(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, kAmLatGolden);
  EXPECT_EQ(b, kPutBwGolden);
}

}  // namespace
}  // namespace bb
