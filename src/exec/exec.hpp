#pragma once
// bb::exec -- parallel multi-simulation execution engine.
//
// One `Simulator` is fast (PR 1), but the paper's methodology is built
// from *hundreds of independent simulations*: every figure sweep, every
// ablation axis, every fault BER point, every rank count is its own
// seeded run. `bb::exec` shards that experiment space across cores with
// a thread pool whose workers claim grid indices from one shared counter,
// while keeping results **bit-identical** to a serial run:
//
//  * a job is an index into a declaratively expanded grid; its seed is a
//    pure function of (sweep seed, grid index) -- never of execution
//    order, worker identity, or wall-clock time (`bb::derive_seed`);
//  * each job builds, runs, and destroys its own `Simulator` entirely on
//    one worker thread (the isolation invariant the whole `sim/` stack
//    upholds: no process-global mutable state, thread-local pools only --
//    see docs/PARALLEL_EXEC.md);
//  * results are collected into grid order regardless of completion
//    order, so tables print identically at any `--jobs` value;
//  * the first job failure (lowest grid index among captured errors)
//    cancels outstanding jobs and is rethrown to the caller.
//
// Thread count resolves as: explicit Options::jobs, else the BB_JOBS
// environment variable, else std::thread::hardware_concurrency().

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace bb::exec {

/// Worker threads available on this machine (>= 1).
int hardware_jobs();

/// Default thread count: the BB_JOBS environment variable if set and
/// positive, otherwise hardware_jobs().
int default_jobs();

struct Options {
  /// Worker threads; <= 0 resolves through default_jobs(). Results are
  /// bit-identical at every value, including oversubscription.
  int jobs = 0;
  /// Cancel outstanding (not yet started) jobs after the first failure.
  /// Running jobs complete; the lowest-index captured error is rethrown.
  bool fail_fast = true;
};

/// Per-job accounting, reported in grid order.
struct JobStats {
  double wall_ms = 0.0;        ///< host wall-clock time inside the job
  std::uint64_t events = 0;    ///< simulator events (job-reported)
  std::int64_t sim_time_ps = 0;///< final simulated time (job-reported)
  int worker = -1;             ///< worker thread that ran the job
  bool ran = false;            ///< false => cancelled before starting
};

/// Handle passed to each running job: identity, deterministic seed, and
/// a sink for per-job stats.
class Job {
 public:
  Job(std::size_t index, std::uint64_t seed, JobStats* stats)
      : index_(index), seed_(seed), stats_(stats) {}

  std::size_t index() const { return index_; }

  /// Deterministic per-job seed: derive_seed(sweep seed, grid index).
  /// Identical whatever thread runs the job or in whatever order.
  std::uint64_t seed() const { return seed_; }

  /// Fork a labelled child seed (e.g. one per simulated node).
  std::uint64_t fork_seed(std::uint64_t label) const {
    return derive_seed(seed_, label);
  }

  /// Report simulator totals for the per-job stats table.
  void note_events(std::uint64_t events) { stats_->events = events; }
  void note_sim_time_ps(std::int64_t ps) { stats_->sim_time_ps = ps; }

 private:
  std::size_t index_;
  std::uint64_t seed_;
  JobStats* stats_;
};

namespace detail {

/// Type-erased batch executor (the thread pool lives in exec.cpp).
/// `run_job(i)` must be safe to call concurrently for distinct `i`.
struct Batch {
  std::size_t count = 0;
  std::function<void(std::size_t job_index, int worker, JobStats&)> run_job;
  std::vector<JobStats>* stats = nullptr;
  double* wall_ms = nullptr;
  int* jobs_used = nullptr;
};

void run_batch(const Batch& batch, const Options& opts);

}  // namespace detail

/// Ordered results of a batch: `values[i]` is job i's return value, in
/// grid order -- independent of thread count and completion order.
template <typename R>
struct Results {
  std::vector<R> values;
  std::vector<JobStats> stats;
  double wall_ms = 0.0;  ///< whole-batch wall time
  int jobs = 0;          ///< worker threads used

  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const JobStats& s : stats) n += s.events;
    return n;
  }
  /// Sum of per-job wall times: the serial-equivalent cost.
  double serial_ms() const {
    double t = 0.0;
    for (const JobStats& s : stats) t += s.wall_ms;
    return t;
  }
  /// One line: "12 jobs on 4 threads: 81.3 ms wall, 301.2 ms serial (3.7x)".
  std::string summary() const;
};

std::string format_summary(std::size_t count, int jobs, double wall_ms,
                           double serial_ms, std::uint64_t events);

template <typename R>
std::string Results<R>::summary() const {
  return format_summary(values.size(), jobs, wall_ms, serial_ms(),
                        total_events());
}

/// Runs `count` independent jobs, `fn(Job&) -> R`, sharded across the
/// pool. Seeds fork deterministically from `seed` by grid index. Throws
/// the lowest-index job error after cancelling outstanding jobs.
template <typename F>
auto run(std::size_t count, std::uint64_t seed, F&& fn, Options opts = {})
    -> Results<std::invoke_result_t<F&, Job&>> {
  using R = std::invoke_result_t<F&, Job&>;
  static_assert(!std::is_void_v<R>, "jobs must return a value");

  Results<R> out;
  std::vector<std::optional<R>> slots(count);

  detail::Batch batch;
  batch.count = count;
  batch.stats = &out.stats;
  batch.wall_ms = &out.wall_ms;
  batch.jobs_used = &out.jobs;
  batch.run_job = [&slots, &fn, seed](std::size_t i, int worker,
                                      JobStats& stats) {
    stats.worker = worker;
    Job job(i, derive_seed(seed, i), &stats);
    slots[i].emplace(fn(job));
  };
  detail::run_batch(batch, opts);

  out.values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BB_ASSERT_MSG(slots[i].has_value(), "job produced no result");
    out.values.push_back(std::move(*slots[i]));
  }
  return out;
}

}  // namespace bb::exec
