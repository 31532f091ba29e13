#pragma once
// The discrete-event simulator core.
//
// A `Simulator` advances a timeline of suspended coroutines and plain
// callbacks. Processes are `Task<void>` coroutines spawned as roots; they
// advance simulated time only by `co_await sim.delay(d)`, or sleep parked
// on the component whose state they poll (`Parked`) until it wakes them.
// Hardware models react to transactions through `call_at` events and
// withdrawable `Timer`s. Events with equal timestamps run in FIFO
// schedule order (a monotonically increasing sequence number breaks
// ties), which makes runs deterministic.
//
// The dispatch loop is built for near-zero per-event overhead (see
// docs/SIM_ENGINE.md for the full design):
//  * events live in pooled fixed-size nodes; callables are constructed in
//    place (no `std::function`, no per-event heap allocation, no copy on
//    pop);
//  * events at the current time -- the dominant case -- go through an O(1)
//    FIFO ready ring; future timestamps scheduled in nondecreasing order
//    (fixed latencies) ride an O(1) monotone run queue; only out-of-order
//    timestamps pay the (4-ary) heap. The ready ring, the monotone run and
//    every `Deferred` ledger share one ring template (`detail::Ring`);
//  * root-process failures set a flag via a promise hook instead of being
//    discovered by a per-event scan over all roots.

#include <coroutine>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace bb::sim {

/// Thrown when `set_event_limit` is exceeded: a runaway self-rescheduling
/// process. Always on, in every build type -- a simulator that silently
/// spins produces plausible-looking wrong numbers.
class EventLimitError : public std::runtime_error {
 public:
  explicit EventLimitError(std::uint64_t limit)
      : std::runtime_error(
            "simulator event limit (" + std::to_string(limit) +
            ") exceeded: runaway process?"),
        limit_(limit) {}
  std::uint64_t limit() const { return limit_; }

 private:
  std::uint64_t limit_;
};

class Simulator;

namespace detail {

/// A FIFO of elided events (sim/deferred.hpp, docs/SIM_ENGINE.md "Elided
/// events"). The Simulator runs every attached source's entries, in
/// global (time, seq) order, when it settles or drains them.
class ElidedSource {
 public:
  /// The head entry's (time, seq); false when empty.
  virtual bool head(std::int64_t& t_ps, std::uint64_t& seq) const = 0;
  /// Runs the head entry and pops it.
  virtual void run_head() = 0;

 protected:
  virtual ~ElidedSource() = default;

  /// Set by Simulator::attach; cleared if the Simulator dies first.
  Simulator* sim_ = nullptr;

 private:
  friend class bb::sim::Simulator;
};

}  // namespace detail

/// Where a wake at time t falls against a pass of the parked process
/// that starts exactly at t.
enum class Tie : std::uint8_t {
  /// The pass ran before the waking event and missed it: it is replayed.
  kPassFirst,
  /// The waking event ran first and the pass sees it: the process
  /// resumes at that pass.
  kWakeFirst,
};

/// The place on `sim`'s timeline of a pass a parked process would have
/// run: the (time, seq) of the resume a wake at a write notice would
/// have queued.
struct PassPlace {
  const Simulator* sim = nullptr;
  TimePs t;
  std::uint64_t seq = 0;

  /// Whether that pass would have run before the current event.
  bool ran() const;
  bool before(const PassPlace& o) const {
    return t != o.t ? t < o.t : seq < o.seq;
  }
};

/// A process suspended on no queue by the component that parked it
/// (docs/SIM_ENGINE.md "Parked waiters"). Whatever could change what the
/// process does next calls wake(); the parker then replays the time the
/// process skipped and schedules its real resume.
class Parked {
 public:
  virtual void wake(Tie tie) = 0;
  /// A write into the polled memory was scheduled; it lands later, so
  /// the first pass after now still comes up empty. Returns that pass's
  /// place if the process stays parked through it, or nothing if it was
  /// woken instead (which is all a process that only wakes does).
  virtual std::optional<PassPlace> notice() {
    wake(Tie::kPassFirst);
    return std::nullopt;
  }

 protected:
  ~Parked() = default;
};

/// A cancellable one-shot wake-up. A `call_at` event cannot be withdrawn
/// once queued; a Timer can: cancel() takes it off the queue outright, so
/// a cancelled timer neither runs, counts as an event, nor moves now()
/// when the queue drains. Timers keep their own small indexed heap inside
/// the Simulator (they are few -- one per parked waiter with a deadline)
/// and merge with the other queues by the same (time, seq) order.
class Timer {
 public:
  using Fn = void (*)(void* ctx);
  Timer(Simulator& sim, Fn fn, void* ctx) : sim_(sim), fn_(fn), ctx_(ctx) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)schedules the wake-up at absolute time `t` (>= now).
  void arm(TimePs t);
  /// Withdraws a pending wake-up; no-op when not armed.
  void cancel();
  bool armed() const { return index_ != kNotQueued; }

 private:
  friend class Simulator;
  static constexpr std::size_t kNotQueued = ~std::size_t{0};

  bool before(const Timer& o) const {
    return t_ps_ != o.t_ps_ ? t_ps_ < o.t_ps_ : seq_ < o.seq_;
  }

  Simulator& sim_;
  Fn fn_;
  void* ctx_;
  std::int64_t t_ps_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t index_ = kNotQueued;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 42);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePs now() const { return now_; }

  /// Deterministic RNG shared by the run. Components typically `fork()`
  /// their own child streams at construction.
  Rng& rng() { return rng_; }

  /// Schedules a raw coroutine resume at absolute time `t` (>= now).
  /// Coroutine events are a bare tagged pointer in the queue: no event
  /// node, no pool, no allocation. A resume at now() goes onto the ready
  /// ring behind every event already queued at now().
  void schedule_at(TimePs t, std::coroutine_handle<> h) {
    BB_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    enqueue(t, detail::coro_item(h));
  }

  /// Schedules a callback at absolute time `t` (>= now). Stateless
  /// callables travel as a tagged bare function pointer; callables with
  /// captures are constructed in place in a pooled event node (up to
  /// `detail::EventNode::kInlineBytes` without touching the heap).
  template <typename F>
  void call_at(TimePs t, F&& fn) {
    BB_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    enqueue(t, detail::make_callback_item(pool_, std::forward<F>(fn)));
  }

  /// Schedules a callback `d` after the current time (the common
  /// "processing delay" idiom in the hardware models).
  template <typename F>
  void call_in(TimePs d, F&& fn) {
    call_at(now_ + d, std::forward<F>(fn));
  }

  // Elided events (docs/SIM_ENGINE.md "Elided events"): an event that
  // nothing observes when it happens is kept out of the queue, at the
  // exact (time, seq) place it would have had, and run later by whoever
  // needs its effect -- or by the simulator when the queue drains.

  /// Reserves the seq an event queued right now would get.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// Whether an event at (t, seq) would already have run: it precedes
  /// the event being dispatched (between runs: everything run so far).
  bool precedes_current(TimePs t, std::uint64_t seq) const {
    return t != now_ ? t < now_ : seq < cur_seq_;
  }
  /// Queues a callback at a seq from reserve_seq(). (t, seq) must not
  /// precede the current event.
  template <typename F>
  void call_at_reserved(TimePs t, std::uint64_t seq, F&& fn) {
    BB_ASSERT_MSG(!precedes_current(t, seq), "reserved event already past");
    heap_.push(t, seq, detail::make_callback_item(pool_, std::forward<F>(fn)));
  }
  /// Queues a coroutine resume at a seq from reserve_seq(); the same
  /// precondition.
  void schedule_at_reserved(TimePs t, std::uint64_t seq,
                            std::coroutine_handle<> h) {
    BB_ASSERT_MSG(!precedes_current(t, seq), "reserved event already past");
    heap_.push(t, seq, detail::coro_item(h));
  }
  /// Records an elided event at `t`: a drained run ends no earlier.
  void note_elided(TimePs t) {
    if (t > elided_until_) elided_until_ = t;
  }
  /// Sources register for the drain and settle passes.
  void attach(detail::ElidedSource* src);
  void detach(detail::ElidedSource* src);

  /// Awaitable that suspends the current process for `d`.
  struct DelayAwaiter {
    Simulator* sim;
    TimePs d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_at(sim->now_ + d, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(TimePs d) { return DelayAwaiter{this, d}; }

  /// Registers and starts a root process. The simulator owns the frame and
  /// destroys it at teardown; exceptions escaping a root process abort.
  void spawn(Task<void> task, std::string name = "process");

  /// Runs one event. When the queue is empty, first drains the elided
  /// events: each runs, uncounted, in (time, seq) order, and now() moves
  /// to the latest elided event. Returns false if no event remains.
  /// Isolation invariant (debug-checked): a Simulator is single-threaded
  /// -- it must be stepped on the thread that constructed it. Parallel
  /// execution (bb::exec) runs whole simulators on distinct threads; it
  /// never shares one across threads.
  bool step() {
#ifndef NDEBUG
    BB_ASSERT_MSG(owner_ == std::this_thread::get_id(),
                  "Simulator stepped off its construction thread");
#endif
    return step_impl();
  }
  /// Runs until the event queue drains.
  void run();
  /// Runs while events exist and now() <= t, then runs the elided
  /// events up to t.
  void run_until(TimePs t);

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const {
    return ring_.empty() && run_.empty() && heap_.empty() && timers_.empty();
  }

  /// Processes currently parked: suspended on no queue by a component
  /// that replays their idle time arithmetically and reschedules them
  /// when something they could observe happens (llp::Worker's idle
  /// progress loops; docs/SIM_ENGINE.md "Parked waiters"). A process
  /// still parked when the queue drains, with no deadline to wake it,
  /// is deadlocked -- the event-free form of a spinning livelock.
  std::size_t parked() const { return parked_; }
  /// Bookkeeping for parked(), called by the parking component.
  void note_parked() { ++parked_; }
  void note_unparked() {
    BB_ASSERT_MSG(parked_ > 0, "unpark without a parked process");
    --parked_;
  }

  /// Safety valve against runaway process loops; 0 disables. Exceeding the
  /// limit throws `EventLimitError` in every build type.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Event-node slabs allocated so far (diagnostic: flat once warm).
  std::size_t event_pool_chunks() const { return pool_.chunks(); }

  /// Internal: called from the root promise's unhandled_exception hook.
  void note_root_error(std::uint32_t root_index,
                       std::exception_ptr error) noexcept;

 private:
  friend class Timer;
  struct RootProcess {
    std::coroutine_handle<detail::Promise<void>> handle;
    std::string name;
  };

  void enqueue(TimePs t, detail::EventItem item) {
    const std::uint64_t seq = next_seq_++;
    if (t == now_) {
      ring_.push({seq, item});
    } else if (run_.empty() || t.ps() >= run_.back().t_ps) {
      run_.push({t.ps(), seq, item});
    } else {
      heap_.push(t, seq, item);
    }
  }

  bool step_impl();
  bool pick_next(TimePs& t, std::uint64_t& seq, detail::EventItem& item);
  bool has_event_at_or_before(TimePs t) const;
  void dispatch(TimePs t, std::uint64_t seq, detail::EventItem item);
  /// The attached source whose head comes first, or null.
  detail::ElidedSource* first_elided(std::int64_t& t_ps,
                                     std::uint64_t& seq) const;
  /// Runs every elided event that precedes the current point.
  void settle_elided();
  /// Queue empty: runs elided events until one queues an event.
  void drain_elided();
  // Timer heap (binary, indexed: each Timer knows its slot, so cancel
  // is O(log n) removal rather than a tombstone left in the queue).
  bool timer_runs_next() const;
  void fire_timer();
  void timer_push(Timer* tm);
  void timer_remove(Timer* tm);
  void timer_sift_up(std::size_t i);
  void timer_sift_down(std::size_t i);
  [[noreturn]] void rethrow_root_error();
  void drop_pending() noexcept;

  TimePs now_ = TimePs::zero();
  std::uint64_t next_seq_ = 0;
  /// Seq of the event being dispatched; with now_, the current point.
  std::uint64_t cur_seq_ = 0;
  TimePs elided_until_ = TimePs::zero();
  std::vector<detail::ElidedSource*> elided_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = 0;
  detail::EventPool pool_;
  detail::ReadyRing ring_;
  detail::MonotoneRun run_;
  detail::EventHeap heap_;
  std::vector<Timer*> timers_;
  std::size_t parked_ = 0;
  std::exception_ptr root_error_;
  std::uint32_t root_error_index_ = 0;
  std::vector<RootProcess> roots_;
  Rng rng_;
#ifndef NDEBUG
  std::thread::id owner_ = std::this_thread::get_id();
#endif
};

inline bool PassPlace::ran() const { return sim->precedes_current(t, seq); }

}  // namespace bb::sim
