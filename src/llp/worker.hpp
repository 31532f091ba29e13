#pragma once
// The LLP worker: owns progress (CQ polling) for the endpoints created
// from it, mirroring uct_worker_progress (§4.1).
//
// A progress pass scans the RX CQ and every registered endpoint's TX CQ,
// dequeuing visible entries up to a batch limit. Each dequeued entry costs
// LLP_prog (load memory barrier + CQE read + bookkeeping); an empty pass
// costs the cheaper empty-progress time. Completion dispatch (endpoint
// accounting, registered upper-layer callbacks) runs before the pass
// returns, exactly as UCT executes callbacks before uct_worker_progress
// returns (§5).
//
// A blocking wait loop may pass an IdleLoop to progress(): an empty pass
// then parks the loop instead of scheduling its next poll, and the
// skipped passes are replayed arithmetically when a write into the node
// (its commit), other use of the core, or the loop's deadline wakes it.
// A write's notice only replays the passes up to it: the loop stays
// parked through the next pass, which cannot see the write yet
// (docs/SIM_ENGINE.md "Parked waiters").

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cpu/core.hpp"
#include "nic/queues.hpp"
#include "prof/profiler.hpp"
#include "sim/task.hpp"

namespace bb::llp {

class Endpoint;

struct WorkerConfig {
  /// Maximum CQ entries dequeued per progress call.
  std::uint32_t batch_limit = 16;
};

/// A blocking wait loop's description of its empty pass, which lets
/// progress() park the loop (docs/SIM_ENGINE.md "Parked waiters").
struct IdleLoop {
  /// Everything one empty pass of the loop consumes, in draw order.
  std::span<const cpu::CostSpec* const> pass_costs;
  /// The loop's watchdog: it exits at the first pass that starts after
  /// this time. TimePs::max() when it has none.
  TimePs deadline = TimePs::max();
  /// True while the loop would keep spinning: its own exit condition is
  /// false and no upper-layer work is queued. Only writes into the node
  /// and work on the loop's core may change it.
  bool (*spinning)(const void* ctx) = nullptr;
  const void* ctx = nullptr;

  /// Binds `spinning` to a callable that must outlive the loop.
  template <typename F>
  static IdleLoop of(std::span<const cpu::CostSpec* const> costs,
                     TimePs deadline, const F& spinning) {
    return IdleLoop{costs, deadline,
                    [](const void* f) { return (*static_cast<const F*>(f))(); },
                    &spinning};
  }
};

class Worker final : private sim::Parked {
 public:
  /// `profiler`'s wrapped sites choose what every layer on it measures.
  Worker(cpu::Core& core, nic::HostMemory& host, prof::Profiler& profiler,
         WorkerConfig cfg = {});
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  cpu::Core& core() { return core_; }
  nic::HostMemory& host() { return host_; }

  prof::Profiler& profiler() { return profiler_; }

  /// Callback invoked for every receive completion (HLP registers its
  /// tag-matching here; §5's "registered callback" chain).
  void set_rx_handler(std::function<void(const nic::Cqe&)> h) {
    rx_handler_ = std::move(h);
  }

  /// Message ids are allocated node-wide (via the host memory image) so
  /// multiple workers on one node never collide at the shared NIC.
  std::uint64_t alloc_msg_id() { return host_.alloc_msg_id(); }
  void register_endpoint(Endpoint* ep) { endpoints_.push_back(ep); }

  /// One uct_worker_progress pass; returns completions processed (TX ops
  /// retired count as the number of CQEs dequeued, not ops). With `idle`,
  /// an empty pass may park the calling loop until something it could
  /// observe happens; it then returns 0 at the start of the first pass
  /// after the wake, as the unparked loop would have.
  sim::Task<std::uint32_t> progress(std::uint32_t max_completions = 0,
                                    const IdleLoop* idle = nullptr);

  /// Times an idle loop parked, and the empty passes replayed for it.
  std::uint64_t parks() const { return parks_; }
  std::uint64_t replayed_passes() const { return replayed_passes_; }

  std::uint64_t tx_cqes_polled() const { return tx_cqes_polled_; }
  std::uint64_t tx_ops_retired() const { return tx_ops_retired_; }
  std::uint64_t rx_completions() const { return rx_completions_; }
  /// Completions-with-error surfaced through this worker (fault path).
  std::uint64_t error_completions() const { return error_completions_; }
  /// Subset of error completions that were QP-error flushes (kFlushed):
  /// ops that never failed themselves but lost their QP underneath them.
  std::uint64_t flushed_completions() const { return flushed_completions_; }

 private:
  struct Park {
    Worker& w;
    const IdleLoop& loop;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { w.park(h, loop); }
    void await_resume() const noexcept {}
  };
  bool can_park(const IdleLoop& loop) const;
  void park(std::coroutine_handle<> h, const IdleLoop& loop);
  /// sim::Parked: a write was committed to the node, another process
  /// used the core, or the deadline passed.
  void wake(sim::Tie tie) override;
  /// sim::Parked: a write into the node was scheduled. Replays the
  /// passes up to it and stays parked through the next one, which finds
  /// nothing the write could change.
  std::optional<sim::PassPlace> notice() override;
  /// Leaves the parked state (no resume is scheduled).
  void unpark();

  cpu::Core& core_;
  nic::HostMemory& host_;
  prof::Profiler& profiler_;
  WorkerConfig cfg_;
  std::vector<Endpoint*> endpoints_;
  std::function<void(const nic::Cqe&)> rx_handler_;
  std::uint64_t tx_cqes_polled_ = 0;
  std::uint64_t tx_ops_retired_ = 0;
  std::uint64_t rx_completions_ = 0;
  std::uint64_t error_completions_ = 0;
  std::uint64_t flushed_completions_ = 0;
  // Parking state: the suspended pass, its loop, and the start of the
  // first pass not yet replayed. After a notice that pass holds the seq
  // its resume would have taken (`noticed_`).
  std::coroutine_handle<> parked_;
  const IdleLoop* loop_ = nullptr;
  TimePs next_pass_;
  bool noticed_ = false;
  std::uint64_t pass_seq_ = 0;
  sim::Timer deadline_;
  std::uint64_t parks_ = 0;
  std::uint64_t replayed_passes_ = 0;
};

}  // namespace bb::llp
