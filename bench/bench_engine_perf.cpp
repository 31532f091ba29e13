// Google-benchmark microbenchmarks of the simulator substrate itself:
// event throughput of the DES core, coroutine switch cost, end-to-end
// messages simulated per second. These guard against performance
// regressions that would make the reproduction benches impractically
// slow.
//
// This binary also installs counting global `operator new`/`delete`
// hooks. The *Steady variants report `allocs_per_item`, which must stay
// at 0.000: the engine's contract is zero heap allocations per event in
// steady state (pooled nodes, recycled coroutine frames, cached queue
// buffers). `scripts/check_perf.sh` fails the build if it drifts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "exec/exec.hpp"
#include "llp/worker.hpp"
#include "scenario/cluster.hpp"
#include "scenario/testbed.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

// The replacement operators below route through these two helpers, so
// every new and delete pairs one malloc with one free.
void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace bb;
using namespace bb::literals;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.call_at(TimePs(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_CoroutineDelayLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    sim.spawn([](sim::Simulator& s, int iters) -> sim::Task<void> {
      for (int i = 0; i < iters; ++i) {
        co_await s.delay(1_ns);
      }
    }(sim, n));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineDelayLoop)->Arg(10000);

// Steady-state variants: one warm simulator, allocation counting. These
// isolate the dispatch hot path from first-use pool/queue growth; their
// `allocs_per_item` counter is the zero-allocation regression guard.

void BM_EventDispatchSteady(benchmark::State& state) {
  sim::Simulator sim;
  const int n = static_cast<int>(state.range(0));
  int sink = 0;
  const auto wave = [&] {
    for (int i = 0; i < n; ++i) {
      sim.call_at(sim.now() + TimePs(i + 1), [&sink] { ++sink; });
    }
    sim.run();
  };
  wave();  // warm: grow node pool, run queue, ready ring once
  const std::uint64_t before = g_heap_allocs.load();
  for (auto _ : state) {
    wave();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs_per_item"] =
      static_cast<double>(g_heap_allocs.load() - before) /
      static_cast<double>(state.iterations() * n);
}
BENCHMARK(BM_EventDispatchSteady)->Arg(1000);

// One jittered cost draw through Core::consume: the draw a parked loop
// makes for each cost of each replayed pass, and so the replay's hot
// path (docs/SIM_ENGINE.md "Exact draws, fast"). Items = draws.
void BM_JitteredDraw(benchmark::State& state) {
  sim::Simulator sim;
  cpu::Core core(sim, cpu::CpuCostModel{});
  const cpu::CostSpec& spec = core.costs().llp_empty_progress;
  const auto draws = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < draws; ++i) core.consume(spec);
    benchmark::DoNotOptimize(core.busy_time());
  }
  state.SetItemsProcessed(state.iterations() * draws);
  state.SetLabel("cost draws");
}
BENCHMARK(BM_JitteredDraw)->Arg(10000);

// Core::replay_until over the idle pass of a parked wait loop (the UCP
// progress iteration plus the empty LLP poll), for gaps between wakes
// drawn exponential with a mean of 37 passes: the mean per wake of
// pingpong_mix_lossy. Items = replayed passes.
void BM_ReplayUntil(benchmark::State& state) {
  sim::Simulator sim;
  cpu::Core core(sim, cpu::CpuCostModel{});
  const cpu::CostSpec* const pass[] = {&core.costs().ucp_progress_iter,
                                       &core.costs().llp_empty_progress};
  const double pass_ns = pass[0]->mean_ns + pass[1]->mean_ns;
  Rng gap_rng(37);
  std::vector<TimePs> gaps(static_cast<std::size_t>(state.range(0)));
  for (TimePs& g : gaps) g = TimePs::from_ns(gap_rng.exponential(37 * pass_ns));
  TimePs start = TimePs::zero();
  std::uint64_t passes = 0;
  for (auto _ : state) {
    for (const TimePs gap : gaps) {
      start = core.replay_until(pass, start, start + gap, false, passes);
    }
    benchmark::DoNotOptimize(start);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(passes));
  state.SetLabel("replayed passes");
}
BENCHMARK(BM_ReplayUntil)->Arg(1000);

// A blocking wait parked on its empty passes (docs/SIM_ENGINE.md "Parked
// waiters"): RDMA writes land in the node every 2 us, each committing
// 6 us after its notice (a 16 KiB payload's RC-to-MEM), so up to three
// are in flight at once. Every notice and every commit wakes the loop,
// which replays the passes it skipped, runs one real pass and parks
// again. Items = writes; parking, waking and replay must not allocate.
struct ParkedWaitNode {
  sim::Simulator sim;
  cpu::Core core{sim, cpu::CpuCostModel{}};
  nic::HostMemory host;
  prof::Profiler profiler{core};
  llp::Worker worker{core, host, profiler};
  pcie::Tlp payload;
  std::uint64_t target = 0;

  ParkedWaitNode() {
    payload.type = pcie::TlpType::kMemWrite;
    payload.content =
        pcie::PayloadWrite{.bytes = 16384, .op = pcie::WireOp::kRdmaWrite};
  }
  bool spinning() const { return host.payload_writes() < target; }

  static sim::Task<void> wait(ParkedWaitNode& n) {
    const cpu::CostSpec* const pass[] = {&n.core.costs().ucp_progress_iter,
                                         &n.core.costs().llp_empty_progress};
    const auto spinning = [&n] { return n.spinning(); };
    const llp::IdleLoop idle = llp::IdleLoop::of(pass, TimePs::max(), spinning);
    while (n.spinning()) {
      n.core.consume(n.core.costs().ucp_progress_iter);
      (void)co_await n.worker.progress(0, &idle);
    }
  }
  static sim::Task<void> writes(ParkedWaitNode& n, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      co_await n.sim.delay(2_us);
      n.host.note_write_scheduled();
      const TimePs visible = n.sim.now() + 6_us;
      n.sim.call_at(visible, [&n, visible] {
        n.host.commit_write(n.payload, visible);
      });
    }
  }
  void round(std::uint64_t count) {
    target += count;
    sim.spawn(wait(*this));
    sim.spawn(writes(*this, count));
  }
};

void BM_ParkedWaitSteady(benchmark::State& state) {
  ParkedWaitNode n;
  const auto count = static_cast<std::uint64_t>(state.range(0));
  n.round(64);  // warm: frame pool, queues and the waiter list
  n.sim.run();
  std::uint64_t measured_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();  // spawn bookkeeping is not the hot path
    n.round(count);
    const std::uint64_t before = g_heap_allocs.load();
    state.ResumeTiming();
    n.sim.run();
    measured_allocs += g_heap_allocs.load() - before;
  }
  benchmark::DoNotOptimize(n.worker.replayed_passes());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
  state.counters["allocs_per_item"] =
      static_cast<double>(measured_allocs) /
      static_cast<double>(state.iterations() * count);
  state.counters["replayed_per_item"] =
      static_cast<double>(n.worker.replayed_passes()) /
      static_cast<double>(n.host.payload_writes());
}
BENCHMARK(BM_ParkedWaitSteady)->Arg(1000);

void BM_PutBwSimulationThroughput(benchmark::State& state) {
  constexpr std::uint64_t kWarmup = 100;
  const auto messages = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    scenario::Testbed tb(scenario::presets::thunderx2_cx4());
    bench::PutBwBenchmark bench(
        tb, {.messages = messages, .warmup = kWarmup, .capture_trace = false});
    const auto res = bench.run();
    benchmark::DoNotOptimize(res.cpu_per_msg_ns);
    events = tb.sim().events_processed();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("simulated messages");
  // Events per simulated message, warm-up included (one run's count).
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(messages + kWarmup);
}
BENCHMARK(BM_PutBwSimulationThroughput)->Arg(2000);

// Collective throughput: an 8-rank allreduce drives 8 MPI stacks, 56
// peer endpoints, and the coroutine schedules in bb::coll -- the densest
// event mix the repo produces. Items = simulated collective operations.
void BM_CollAllreduceThroughput(benchmark::State& state) {
  constexpr std::uint64_t kWarmup = 2;
  const auto iters = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    scenario::Cluster cl(scenario::presets::deterministic(), 8);
    coll::World world(cl);
    bench::OsuColl bench(world, bench::OsuColl::Kind::kAllreduce,
                         {.iterations = iters, .warmup = kWarmup, .bytes = 256});
    const auto res = bench.run();
    benchmark::DoNotOptimize(res.iterations);
    events = cl.sim().events_processed();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(iters));
  state.SetLabel("simulated allreduces");
  // Events per simulated allreduce, warm-up included (one run's count).
  state.counters["events_per_op"] =
      static_cast<double>(events) / static_cast<double>(iters + kWarmup);
}
BENCHMARK(BM_CollAllreduceThroughput)->Arg(20);

// Host reference kernel: a discrete-event-style loop that pops the
// earliest key from a 16K-entry binary heap and pushes a later one,
// with no simulator code in it. check_perf.sh divides every other row's
// items/sec by this row's, so the gate compares the code against the
// host it runs on rather than against the host that recorded the
// baseline. Items = heap steps.
void BM_ReferenceKernel(benchmark::State& state) {
  constexpr std::size_t kKeys = 1 << 14;
  const auto steps = state.range(0);
  std::vector<std::uint64_t> heap(kKeys);
  std::uint64_t x = 1;
  for (auto& k : heap) {
    k = (x = x * 6364136223846793005ull + 1442695040888963407ull) >> 40;
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (auto _ : state) {
    for (std::int64_t i = 0; i < steps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      heap.back() += 1 + (x >> 54);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    benchmark::DoNotOptimize(heap.front());
  }
  state.SetItemsProcessed(state.iterations() * steps);
  state.SetLabel("heap steps");
}
BENCHMARK(BM_ReferenceKernel)->Arg(100000);

// bb::exec scaling: one fixed batch of 8 small am_lat simulations,
// sharded over 1, 2, and 4 pool threads. Items = jobs completed, so
// items/sec at Arg(4) over Arg(1) is the parallel-sweep speedup;
// check_perf.sh turns that ratio into a scaling-efficiency gate on
// machines with enough cores. Results stay bit-identical across the
// thread counts (asserted here too -- a perf bench that silently
// diverged would be worse than a slow one).
void BM_ExecParallelSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  constexpr std::size_t kJobs = 8;
  double reference = 0.0;
  for (auto _ : state) {
    const auto res = exec::run(
        kJobs, /*seed=*/42,
        [](exec::Job& job) {
          scenario::Testbed tb(scenario::presets::deterministic());
          bench::AmLatBenchmark b(
              tb, {.iterations = 60, .warmup = 6, .capture_trace = false});
          job.note_events(tb.sim().events_processed());
          return b.run().adjusted_mean_ns;
        },
        {.jobs = jobs});
    if (reference == 0.0) reference = res.values[0];
    if (res.values[0] != reference || res.values[7] != reference) {
      state.SkipWithError("parallel sweep diverged from serial result");
      return;
    }
    benchmark::DoNotOptimize(res.values);
  }
  state.SetItemsProcessed(state.iterations() * kJobs);
  state.SetLabel("simulation jobs");
}
// UseRealTime: the pool's work happens on worker threads, so the default
// main-thread CPU clock would not see it.
BENCHMARK(BM_ExecParallelSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
