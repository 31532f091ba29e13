#pragma once
// Elided events: a FIFO of events that nothing observes at the instant
// they happen (docs/SIM_ENGINE.md "Elided events").
//
// push() gives an entry the seq a queued event would have had, so it
// keeps its exact place in the simulator's (time, seq) order without
// being queued. The owner runs the entries whose place has passed when it
// needs their effect (settle), turns the rest into real events when
// something starts to watch for them (promote), and the Simulator runs
// whatever is left when its queue drains. Entries must be pushed in
// (time, seq) order. Storage is the engine's ring (detail::Ring), which
// grows to the largest backlog and is reused: no allocation per entry
// once warm.

#include <cstdint>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace bb::sim {

template <typename T>
class Deferred final : public detail::ElidedSource {
 public:
  /// Runs one entry: its owner's context, the entry's time and value.
  using Fn = void (*)(void* ctx, TimePs t, const T& value);

  Deferred(Simulator& sim, Fn fn, void* ctx) : fn_(fn), ctx_(ctx) {
    sim.attach(this);
  }
  ~Deferred() {
    if (sim_) sim_->detach(this);
  }
  Deferred(const Deferred&) = delete;
  Deferred& operator=(const Deferred&) = delete;

  bool empty() const { return ring_.empty(); }

  /// Records an event at `t` (>= now) without queueing it. Entries whose
  /// place has already passed run first, so the FIFO only ever holds
  /// entries still ahead of the current event.
  void push(TimePs t, const T& value) {
    settle();
    ring_.push({t.ps(), sim_->reserve_seq(), value});
    sim_->note_elided(t);
  }

  /// Runs, in order, every entry that precedes the current event.
  void settle() {
    while (!ring_.empty()) {
      const Entry& e = ring_.front();
      if (!sim_->precedes_current(TimePs(e.t_ps), e.seq)) break;
      run_head();
    }
  }

  /// Queues every entry as a real event at its reserved (time, seq).
  /// Call settle() first: entries already past cannot be queued.
  void promote() {
    while (!ring_.empty()) {
      const Entry e = ring_.pop();
      sim_->call_at_reserved(TimePs(e.t_ps), e.seq,
                             [fn = fn_, ctx = ctx_, e] {
                               fn(ctx, TimePs(e.t_ps), e.value);
                             });
    }
  }

 private:
  struct Entry {
    std::int64_t t_ps = 0;
    std::uint64_t seq = 0;
    T value{};
  };

  bool head(std::int64_t& t_ps, std::uint64_t& seq) const override {
    if (ring_.empty()) return false;
    t_ps = ring_.front().t_ps;
    seq = ring_.front().seq;
    return true;
  }
  void run_head() override {
    const Entry e = ring_.pop();
    fn_(ctx_, TimePs(e.t_ps), e.value);
  }

  Fn fn_;
  void* ctx_;
  detail::Ring<Entry, 8> ring_;
};

}  // namespace bb::sim
