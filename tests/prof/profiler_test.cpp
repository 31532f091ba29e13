#include "prof/profiler.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace bb::prof {
namespace {

using namespace bb::literals;

cpu::CpuCostModel deterministic_model() {
  cpu::CpuCostModel m;
  m.strip_jitter();
  return m;
}

struct Fixture {
  sim::Simulator sim;
  cpu::Core core;
  Profiler prof;
  explicit Fixture(cpu::CpuCostModel m) : core(sim, m), prof(core) {}
};

TEST(Profiler, CompensatedDurationMatchesRegionWork) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin("work");
  f.core.consume(175.42_ns);
  f.prof.end(r);
  // With deterministic overhead, compensation is exact.
  EXPECT_NEAR(f.prof.mean_ns("work"), 175.42, 1e-6);
}

TEST(Profiler, PerturbsTimelineByOneOverheadPerRegion) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin("work");
  f.core.consume(100_ns);
  f.prof.end(r);
  // Region work + one full timer overhead landed on the core.
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0 + 49.69, 1e-6);
}

TEST(Profiler, DisabledCostsAndRecordsNothing) {
  Fixture f(deterministic_model());
  f.prof.set_enabled(false);
  auto r = f.prof.begin("work");
  f.core.consume(100_ns);
  f.prof.end(r);
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0, 1e-9);
  EXPECT_FALSE(f.prof.has("work"));
}

cpu::CpuCostModel noisy_timer_model() {
  cpu::CpuCostModel m = deterministic_model();
  m.timer_read = cpu::CostSpec{49.69, 1.48 / 49.69, 0.0, 0.0};  // paper §3
  return m;
}

TEST(Profiler, UnwrappedSiteRecordsNothingAndLeavesCoreUntouched) {
  Fixture f(noisy_timer_model());
  Fixture untouched(noisy_timer_model());
  f.prof.wrap({Site::kMpiWait});
  auto r = f.prof.begin(Site::kMpiIsend);
  f.core.consume(100_ns);
  f.prof.end(r);
  EXPECT_FALSE(f.prof.has("MPI_Isend"));
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0, 1e-9);
  // No overhead sample was drawn from the core's stream.
  EXPECT_EQ(f.core.rng().next_u64(), untouched.core.rng().next_u64());
}

TEST(Profiler, BeginWakesAParkedLoopBeforeItsDraw) {
  // A loop parked on the core replays its skipped passes when woken,
  // drawing from the core's stream; begin()'s overhead draw must come
  // after them, as it would after a spinning loop's passes.
  struct Loop final : sim::Parked {
    cpu::Core* core = nullptr;
    std::optional<Rng> rng_at_wake;
    void wake(sim::Tie tie) override {
      EXPECT_EQ(tie, sim::Tie::kPassFirst);
      rng_at_wake = core->rng();
      core->set_parked(nullptr);
    }
  };
  Fixture f(noisy_timer_model());
  Loop loop;
  loop.core = &f.core;
  Rng parked_at = f.core.rng();
  f.core.set_parked(&loop);
  auto r = f.prof.begin("work");
  ASSERT_TRUE(loop.rng_at_wake.has_value());
  EXPECT_EQ(loop.rng_at_wake->next_u64(), parked_at.next_u64());
  f.prof.end(r);
}

TEST(Profiler, WrapMeasuresEverySiteInTheSet) {
  Fixture f(deterministic_model());
  f.prof.wrap({Site::kMpiIsend, Site::kUcpTagSendNb});
  EXPECT_TRUE(f.prof.wraps(Site::kMpiIsend));
  EXPECT_TRUE(f.prof.wraps(Site::kUcpTagSendNb));
  EXPECT_FALSE(f.prof.wraps(Site::kMpiWait));
  auto outer = f.prof.begin(Site::kMpiIsend);
  f.core.consume(20_ns);
  auto inner = f.prof.begin(Site::kUcpTagSendNb);
  f.core.consume(30_ns);
  f.prof.end(inner);
  f.prof.end(outer);
  EXPECT_NEAR(f.prof.mean_ns("ucp_tag_send_nb"), 30.0, 1e-6);
  EXPECT_NEAR(f.prof.mean_ns("MPI_Isend"), 50.0 + 49.69, 1e-6);
}

TEST(Profiler, SubstepSiteRecordsUnderEachSubstepName) {
  Fixture f(deterministic_model());
  f.prof.wrap({Site::kLlpPostSteps});
  auto r = f.prof.begin(Site::kLlpPostSteps, "MD setup");
  f.core.consume(27.78_ns);
  f.prof.end(r);
  EXPECT_NEAR(f.prof.mean_ns("MD setup"), 27.78, 1e-6);
}

TEST(Profiler, WrapOfNoSitesClearsTheSet) {
  Fixture f(deterministic_model());
  f.prof.wrap({Site::kLlpProg, Site::kBusyPost});
  f.prof.wrap({});
  EXPECT_FALSE(f.prof.wraps(Site::kLlpProg));
  EXPECT_FALSE(f.prof.wraps(Site::kBusyPost));
  auto r = f.prof.begin(Site::kLlpProg);
  f.core.consume(60_ns);
  f.prof.end(r);
  EXPECT_FALSE(f.prof.has("LLP_prog"));
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 60.0, 1e-9);
}

TEST(Profiler, DisabledProfilerRecordsNothingAtAWrappedSite) {
  Fixture f(deterministic_model());
  f.prof.wrap({Site::kUcpCallback});
  f.prof.set_enabled(false);
  auto r = f.prof.begin(Site::kUcpCallback);
  f.core.consume(100_ns);
  f.prof.end(r);
  EXPECT_FALSE(f.prof.has("UCP callback"));
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0, 1e-9);
}

TEST(Profiler, NestedRegionsInnerInflatesOuterRaw) {
  // The outer region's raw span contains the inner region's overhead --
  // the reason §3 measures one component at a time. Here the outer mean
  // exceeds inner work + outer work by exactly one extra overhead.
  Fixture f(deterministic_model());
  auto outer = f.prof.begin("outer");
  f.core.consume(50_ns);
  auto inner = f.prof.begin("inner");
  f.core.consume(30_ns);
  f.prof.end(inner);
  f.prof.end(outer);
  EXPECT_NEAR(f.prof.mean_ns("inner"), 30.0, 1e-6);
  EXPECT_NEAR(f.prof.mean_ns("outer"), 80.0 + 49.69, 1e-6);
}

TEST(Profiler, NoisyOverheadCompensationIsUnbiased) {
  cpu::CpuCostModel m;
  m.strip_jitter();
  m.timer_read = cpu::CostSpec{49.69, 1.48 / 49.69, 0.0, 0.0};  // paper §3
  Fixture f(m);
  for (int i = 0; i < 2000; ++i) {
    auto r = f.prof.begin("work");
    f.core.consume(100_ns);
    f.prof.end(r);
  }
  const Summary s = f.prof.samples("work").summarize();
  EXPECT_NEAR(s.mean, 100.0, 0.15);   // unbiased
  EXPECT_NEAR(s.stddev, 1.48, 0.35);  // residual = timer noise
}

TEST(Profiler, RecordNsForDerivedComponents) {
  Fixture f(deterministic_model());
  f.prof.record_ns("MPICH (derived)", 24.37);
  f.prof.record_ns("MPICH (derived)", 24.37);
  EXPECT_NEAR(f.prof.mean_ns("MPICH (derived)"), 24.37, 1e-9);
}

TEST(Profiler, ReportListsRegions) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin("LLP_post");
  f.core.consume(175.42_ns);
  f.prof.end(r);
  const std::string rep = f.prof.report();
  EXPECT_NE(rep.find("LLP_post"), std::string::npos);
  EXPECT_NE(rep.find("175.42"), std::string::npos);
}

TEST(Profiler, OverheadMeanExposed) {
  Fixture f(deterministic_model());
  EXPECT_NEAR(f.prof.overhead_mean_ns(), 49.69, 1e-9);
}

TEST(Profiler, SnapshotDetachesFromLiveProfiler) {
  Fixture f(deterministic_model());
  f.prof.record_ns("LLP_post", 175.0);
  f.prof.note_count("posts", 3);
  const ProfileData snap = f.prof.snapshot();
  f.prof.clear();
  EXPECT_FALSE(f.prof.has("LLP_post"));
  EXPECT_EQ(snap.regions.at("LLP_post").summarize().count, 1u);
  EXPECT_EQ(snap.counters.at("posts"), 3u);
}

TEST(ProfileData, MergeAppendsRegionsAndAddsCounters) {
  // The bb::exec aggregation path: per-job snapshots folded in grid
  // order into one report.
  Fixture a(deterministic_model());
  a.prof.record_ns("LLP_post", 100.0);
  a.prof.record_ns("LLP_post", 200.0);
  a.prof.note_count("posts", 2);
  Fixture b(deterministic_model());
  b.prof.record_ns("LLP_post", 300.0);
  b.prof.record_ns("LLP_prog", 60.0);
  b.prof.note_count("posts", 1);
  b.prof.note_count("polls", 5);

  ProfileData total = a.prof.snapshot();
  total.merge(b.prof.snapshot());
  EXPECT_EQ(total.regions.at("LLP_post").summarize().count, 3u);
  EXPECT_NEAR(total.regions.at("LLP_post").summarize().mean, 200.0, 1e-9);
  EXPECT_EQ(total.regions.at("LLP_prog").summarize().count, 1u);
  EXPECT_EQ(total.counters.at("posts"), 3u);
  EXPECT_EQ(total.counters.at("polls"), 5u);
}

TEST(ProfileData, MergeOrderIsDeterministic) {
  // this-first, then other: merging A<-B and A'<-B' with identical
  // inputs yields identical sample order (what makes the parallel
  // aggregate bit-identical to the serial one).
  ProfileData a1, b1, a2, b2;
  a1.regions["r"].add_ns(1.0);
  b1.regions["r"].add_ns(2.0);
  a2.regions["r"].add_ns(1.0);
  b2.regions["r"].add_ns(2.0);
  a1.merge(b1);
  a2.merge(b2);
  EXPECT_EQ(a1.regions["r"].values_ns(), a2.regions["r"].values_ns());
  EXPECT_EQ(a1.report(), a2.report());
}

TEST(ProfileData, EmptyAndReport) {
  ProfileData d;
  EXPECT_TRUE(d.empty());
  d.counters["faults"] = 7;
  EXPECT_FALSE(d.empty());
  const std::string rep = d.report();
  EXPECT_NE(rep.find("faults"), std::string::npos);
}

}  // namespace
}  // namespace bb::prof
