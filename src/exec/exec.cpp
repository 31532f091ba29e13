#include "exec/exec.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace bb::exec {

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_jobs() {
  if (const char* env = std::getenv("BB_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return hardware_jobs();
}

std::string format_summary(std::size_t count, int jobs, double wall_ms,
                           double serial_ms, std::uint64_t events) {
  char buf[160];
  const double speedup = wall_ms > 0.0 ? serial_ms / wall_ms : 1.0;
  if (events > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%zu jobs on %d thread%s: %.1f ms wall, %.1f ms serial "
                  "(%.2fx), %llu events",
                  count, jobs, jobs == 1 ? "" : "s", wall_ms, serial_ms,
                  speedup, static_cast<unsigned long long>(events));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%zu jobs on %d thread%s: %.1f ms wall, %.1f ms serial "
                  "(%.2fx)",
                  count, jobs, jobs == 1 ? "" : "s", wall_ms, serial_ms,
                  speedup);
  }
  return buf;
}

namespace detail {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct BatchState {
  const Batch* batch = nullptr;
  // The lowest grid index no worker has claimed yet. Jobs are whole
  // simulations (milliseconds to seconds), so one shared counter balances
  // the load without contention.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancel{false};
  bool fail_fast = true;

  // Captured job failures; the lowest grid index wins at rethrow so the
  // reported error does not depend on completion order.
  std::mutex error_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

  void run_one(std::size_t i, int worker) {
    JobStats& stats = (*batch->stats)[i];
    if (fail_fast && cancel.load(std::memory_order_acquire)) {
      return;  // cancelled before starting; stats.ran stays false
    }
    stats.ran = true;
    const auto t0 = Clock::now();
    try {
      batch->run_job(i, worker, stats);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        errors.emplace_back(i, std::current_exception());
      }
      cancel.store(true, std::memory_order_release);
    }
    stats.wall_ms = ms_since(t0);
  }

  void worker_loop(int self) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->count) return;
      run_one(i, self);
    }
  }
};

}  // namespace

void run_batch(const Batch& batch, const Options& opts) {
  int jobs = opts.jobs > 0 ? opts.jobs : default_jobs();
  if (static_cast<std::size_t>(jobs) > batch.count) {
    jobs = batch.count == 0 ? 1 : static_cast<int>(batch.count);
  }
  batch.stats->assign(batch.count, JobStats{});
  if (batch.jobs_used != nullptr) *batch.jobs_used = jobs;

  const auto t0 = Clock::now();
  // Workers claim jobs in grid order; which worker runs a job never
  // changes what it computes.
  BatchState state;
  state.batch = &batch;
  state.fail_fast = opts.fail_fast;

  if (jobs == 1) {
    state.worker_loop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (int w = 0; w < jobs; ++w) {
      threads.emplace_back([&state, w] { state.worker_loop(w); });
    }
    for (std::thread& t : threads) t.join();
  }
  if (batch.wall_ms != nullptr) *batch.wall_ms = ms_since(t0);

  if (!state.errors.empty()) {
    std::size_t lowest = 0;
    for (std::size_t k = 1; k < state.errors.size(); ++k) {
      if (state.errors[k].first < state.errors[lowest].first) lowest = k;
    }
    std::rethrow_exception(state.errors[lowest].second);
  }
}

}  // namespace detail
}  // namespace bb::exec
