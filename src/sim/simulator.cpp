#include "sim/simulator.hpp"

#include <cstdio>

namespace bb::sim {

namespace detail {

void notify_root_error(void* simulator, std::uint32_t root_index,
                       std::exception_ptr error) noexcept {
  static_cast<Simulator*>(simulator)->note_root_error(root_index,
                                                      std::move(error));
}

}  // namespace detail

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Timers still armed belong to components that may outlive us; detach
  // them so their own cancel() has nothing left to do.
  for (Timer* tm : timers_) tm->index_ = Timer::kNotQueued;
  for (detail::ElidedSource* src : elided_) src->sim_ = nullptr;
  // Destroy any still-suspended root frames. Nothing may be resumed after
  // this, so handles still queued or parked are never touched again.
  for (auto& r : roots_) {
    if (r.handle) r.handle.destroy();
  }
  // Destroy the payloads of events that never ran (captured resources in
  // queued callbacks must still be released).
  drop_pending();
}

void Simulator::drop_pending() noexcept {
  // Destroy payloads of queued callback events; queued coroutine handles
  // are owned by their root frames and need no action here.
  const auto drop_item = [this](detail::EventItem item) {
    if (detail::item_is_node(item)) {
      detail::EventNode* n = detail::item_node(item);
      if (n->drop) n->drop(n);
      pool_.release(n);
    }
  };
  while (!ring_.empty()) drop_item(ring_.pop().item);
  while (!run_.empty()) drop_item(run_.pop().item);
  while (!heap_.empty()) drop_item(heap_.pop());
}

void Simulator::spawn(Task<void> task, std::string name) {
  auto h = task.release();
  BB_ASSERT_MSG(h, "cannot spawn an empty task");
  auto& promise = h.promise();
  promise.root_sim = this;
  promise.root_index = static_cast<std::uint32_t>(roots_.size());
  roots_.push_back(RootProcess{h, std::move(name)});
  schedule_at(now_, h);
}

void Simulator::note_root_error(std::uint32_t root_index,
                                std::exception_ptr error) noexcept {
  if (!root_error_) {
    root_error_ = std::move(error);
    root_error_index_ = root_index;
  }
}

void Simulator::rethrow_root_error() {
  // Surface exceptions from failed root processes immediately: a failed
  // process invalidates the whole timeline. The flag stays set, so any
  // further stepping keeps rethrowing.
  std::fprintf(stderr, "bb::sim: root process '%s' threw\n",
               roots_[root_error_index_].name.c_str());
  std::rethrow_exception(root_error_);
}

void Simulator::dispatch(TimePs t, std::uint64_t seq,
                         detail::EventItem item) {
  now_ = t;
  cur_seq_ = seq;
  ++events_processed_;
  if (event_limit_ != 0 && events_processed_ > event_limit_) {
    if (detail::item_is_node(item)) {
      detail::EventNode* n = detail::item_node(item);
      if (n->drop) n->drop(n);
      pool_.release(n);
    }
    throw EventLimitError(event_limit_);
  }
  if ((item & 3u) == 0) {
    detail::item_coro(item).resume();
  } else if (detail::item_is_fn(item)) {
    detail::item_fn(item)();
  } else {
    // Callback event: run the in-place callable; destroy the payload and
    // recycle the node even if it throws.
    detail::EventNode* n = detail::item_node(item);
    struct Guard {
      Simulator* sim;
      detail::EventNode* node;
      ~Guard() {
        if (node->drop) node->drop(node);
        sim->pool_.release(node);
      }
    } guard{this, n};
    n->invoke(n);
  }
  if (root_error_) [[unlikely]] {
    rethrow_root_error();
  }
}

// Pops the globally smallest (time, seq) event across the three sources.
// Ring entries all sit at `now_`; a run/heap entry ties with the ring head
// only when it was scheduled -- with a smaller seq -- before time advanced
// to `now_`, in which case it must run first to preserve global order.
bool Simulator::pick_next(TimePs& t, std::uint64_t& seq,
                          detail::EventItem& item) {
  // Future sources first: the monotone run and the timer heap, both keyed
  // by (time, seq).
  int src = 0;  // 0 = none, 1 = run, 2 = heap
  std::int64_t ft = 0;
  std::uint64_t fseq = 0;
  if (!run_.empty()) {
    ft = run_.front().t_ps;
    fseq = run_.front().seq;
    src = 1;
  }
  if (!heap_.empty()) {
    const std::int64_t ht = heap_.top_time().ps();
    const std::uint64_t hseq = heap_.top_seq();
    if (src == 0 || ht < ft || (ht == ft && hseq < fseq)) {
      ft = ht;
      fseq = hseq;
      src = 2;
    }
  }
  if (!ring_.empty()) {
    if (src == 0 || ft > now_.ps() || fseq > ring_.front().seq) {
      t = now_;
      const auto slot = ring_.pop();
      seq = slot.seq;
      item = slot.item;
      return true;
    }
  } else if (src == 0) {
    return false;
  }
  t = TimePs(ft);
  seq = fseq;
  item = (src == 1) ? run_.pop().item : heap_.pop();
  return true;
}

bool Simulator::has_event_at_or_before(TimePs t) const {
  if (!timers_.empty() && TimePs(timers_.front()->t_ps_) <= t) return true;
  if (!ring_.empty()) return now_ <= t;
  if (!run_.empty() && TimePs(run_.front().t_ps) <= t) return true;
  if (!heap_.empty() && heap_.top_time() <= t) return true;
  return false;
}

bool Simulator::step_impl() {
  if (!timers_.empty() && timer_runs_next()) [[unlikely]] {
    fire_timer();
    return true;
  }
  TimePs t;
  std::uint64_t seq = 0;
  detail::EventItem item;
  if (!pick_next(t, seq, item)) {
    drain_elided();
    return !idle() && step_impl();
  }
  dispatch(t, seq, item);
  return true;
}

void Simulator::attach(detail::ElidedSource* src) {
  src->sim_ = this;
  elided_.push_back(src);
}

void Simulator::detach(detail::ElidedSource* src) {
  src->sim_ = nullptr;
  std::erase(elided_, src);
}

detail::ElidedSource* Simulator::first_elided(std::int64_t& t_ps,
                                              std::uint64_t& seq) const {
  detail::ElidedSource* first = nullptr;
  for (detail::ElidedSource* src : elided_) {
    std::int64_t t = 0;
    std::uint64_t s = 0;
    if (src->head(t, s) && (!first || t < t_ps || (t == t_ps && s < seq))) {
      first = src;
      t_ps = t;
      seq = s;
    }
  }
  return first;
}

void Simulator::settle_elided() {
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  while (detail::ElidedSource* src = first_elided(t, seq)) {
    if (!precedes_current(TimePs(t), seq)) break;
    src->run_head();
  }
}

// The queue is empty. Elided events run as uncounted events: each moves
// the current point to its own (time, seq) if that is later. Should one
// queue a real event, the queue takes over again and the rest wait for
// the next drain. Otherwise now() ends at the latest elided event.
void Simulator::drain_elided() {
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  while (detail::ElidedSource* src = first_elided(t, seq)) {
    if (!precedes_current(TimePs(t), seq)) {
      now_ = TimePs(t);
      cur_seq_ = seq;
    }
    src->run_head();
    if (!idle()) return;
  }
  if (now_ < elided_until_) now_ = elided_until_;
  cur_seq_ = next_seq_;
}

// Whether the earliest timer precedes every queued event in (time, seq).
bool Simulator::timer_runs_next() const {
  const Timer& tm = *timers_.front();
  const auto precedes = [&tm](std::int64_t t, std::uint64_t seq) {
    return tm.t_ps_ != t ? tm.t_ps_ < t : tm.seq_ < seq;
  };
  if (!ring_.empty() && !precedes(now_.ps(), ring_.front().seq)) return false;
  if (!run_.empty() && !precedes(run_.front().t_ps, run_.front().seq)) {
    return false;
  }
  if (!heap_.empty() && !precedes(heap_.top_time().ps(), heap_.top_seq())) {
    return false;
  }
  return true;
}

void Simulator::fire_timer() {
  Timer* tm = timers_.front();
  timer_remove(tm);
  now_ = TimePs(tm->t_ps_);
  cur_seq_ = tm->seq_;
  ++events_processed_;
  if (event_limit_ != 0 && events_processed_ > event_limit_) {
    throw EventLimitError(event_limit_);
  }
  tm->fn_(tm->ctx_);
  if (root_error_) [[unlikely]] {
    rethrow_root_error();
  }
}

void Simulator::timer_push(Timer* tm) {
  tm->index_ = timers_.size();
  timers_.push_back(tm);
  timer_sift_up(tm->index_);
}

void Simulator::timer_remove(Timer* tm) {
  const std::size_t i = tm->index_;
  tm->index_ = Timer::kNotQueued;
  Timer* last = timers_.back();
  timers_.pop_back();
  if (last == tm) return;
  timers_[i] = last;
  last->index_ = i;
  timer_sift_up(i);
  timer_sift_down(last->index_);
}

void Simulator::timer_sift_up(std::size_t i) {
  Timer* tm = timers_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!tm->before(*timers_[parent])) break;
    timers_[i] = timers_[parent];
    timers_[i]->index_ = i;
    i = parent;
  }
  timers_[i] = tm;
  tm->index_ = i;
}

void Simulator::timer_sift_down(std::size_t i) {
  Timer* tm = timers_[i];
  const std::size_t n = timers_.size();
  for (;;) {
    std::size_t best = 2 * i + 1;
    if (best >= n) break;
    if (best + 1 < n && timers_[best + 1]->before(*timers_[best])) ++best;
    if (!timers_[best]->before(*tm)) break;
    timers_[i] = timers_[best];
    timers_[i]->index_ = i;
    i = best;
  }
  timers_[i] = tm;
  tm->index_ = i;
}

void Timer::arm(TimePs t) {
  BB_ASSERT_MSG(t >= sim_.now(), "cannot arm a timer in the past");
  cancel();
  t_ps_ = t.ps();
  seq_ = sim_.next_seq_++;
  sim_.timer_push(this);
}

void Timer::cancel() {
  if (armed()) sim_.timer_remove(this);
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(TimePs t) {
  while (has_event_at_or_before(t)) {
    step();
  }
  if (now_ <= t) {
    // Every event at or before t has run; so have the elided ones.
    now_ = t;
    cur_seq_ = next_seq_;
    settle_elided();
  }
}

}  // namespace bb::sim
