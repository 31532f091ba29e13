#pragma once
// The pooled event core of the discrete-event simulator.
//
// Dispatch cost is the tax every simulated nanosecond pays, so the event
// representation is built for zero steady-state heap traffic:
//
//  * An event is a one-word tagged `EventItem`: either a raw coroutine
//    handle (the dominant case -- delays and parked resumes) or a
//    pointer to an `EventNode` holding a callback. Coroutine events
//    therefore touch no pool and no allocator at all.
//  * `EventNode` is a fixed-size, pool-recycled node for callbacks. The
//    callable is constructed in place in the node's inline storage (no
//    `std::function`, no move on dispatch). Callables larger than the
//    inline buffer -- none exist on the hot path today -- fall back to a
//    heap box, counted so benchmarks can flag them.
//  * `EventPool` hands nodes out of bump-allocated slabs with an intrusive
//    free list; steady-state acquire/release never allocates.
//  * `ReadyRing` is the FIFO for events at the current simulated time and
//    `MonotoneRun` the FIFO for future events scheduled in time order.
//    Both are the one power-of-two `Ring` template, with O(1) push/pop.
//  * `EventHeap` orders future timestamps. It is a 4-ary implicit heap
//    whose 24-byte entries carry the (time, seq) key inline, so sift
//    compares never chase pointers and pops never copy a callable.
//
// Global ordering is (timestamp, schedule sequence) -- identical to the
// previous `std::priority_queue` engine, which keeps seeded runs
// byte-for-byte reproducible (see docs/SIM_ENGINE.md).

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace bb::sim::detail {

struct EventNode;

/// Tagged event payload. The two low bits encode the kind; every payload
/// pointer is at least 4-byte aligned, so they are always free:
///   00 -> coroutine handle address (resume it)
///   x1 -> `EventNode*` holding a callback with captured state
///   10 -> bare `void(*)()` for a stateless callable (no node, no pool)
using EventItem = std::uintptr_t;
using EventFn = void (*)();

inline bool item_is_node(EventItem it) { return (it & 1u) != 0; }
inline bool item_is_fn(EventItem it) { return (it & 3u) == 2u; }
inline EventNode* item_node(EventItem it) {
  return reinterpret_cast<EventNode*>(it & ~static_cast<std::uintptr_t>(1));
}
inline EventFn item_fn(EventItem it) {
  return reinterpret_cast<EventFn>(it & ~static_cast<std::uintptr_t>(3));
}
inline std::coroutine_handle<> item_coro(EventItem it) {
  return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(it));
}
inline EventItem coro_item(std::coroutine_handle<> h) {
  return reinterpret_cast<std::uintptr_t>(h.address());
}
inline EventItem node_item(EventNode* n) {
  return reinterpret_cast<std::uintptr_t>(n) | 1u;
}

struct EventNode {
  /// Inline callable storage, sized for the largest hot-path capture
  /// (the PCIe link delivery lambda: this + Tlp + seq + arrive = 152 B).
  static constexpr std::size_t kInlineBytes = 152;

  // Storage first: it inherits the node's max alignment at offset 0, and
  // the 24-byte header behind it keeps the node at exactly 176 bytes.
  alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  void (*invoke)(EventNode*);  // runs the callable
  void (*drop)(EventNode*);    // destroys the payload; null => trivial
  EventNode* next;             // free-list link

  template <typename F>
  void set_callback(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage)) Fn(std::forward<F>(fn));
      invoke = [](EventNode* n) { (*n->payload<Fn>())(); };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        drop = nullptr;
      } else {
        drop = [](EventNode* n) { n->payload<Fn>()->~Fn(); };
      }
    } else {
      // Oversized callable: boxed on the heap. Not steady-state -- counted
      // so the allocation-free invariant stays observable.
      boxed_events_counter().fetch_add(1, std::memory_order_relaxed);
      Fn* box = new Fn(std::forward<F>(fn));
      std::memcpy(storage, &box, sizeof(box));
      invoke = [](EventNode* n) {
        Fn* b;
        std::memcpy(&b, n->storage, sizeof(b));
        (*b)();
      };
      drop = [](EventNode* n) {
        Fn* b;
        std::memcpy(&b, n->storage, sizeof(b));
        delete b;
      };
    }
  }

  template <typename Fn>
  Fn* payload() {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  /// Process-wide count of events whose callable overflowed the inline
  /// buffer (diagnostic; the hot path must keep this at zero). Atomic:
  /// bb::exec runs simulators on several threads, and this is the one
  /// counter they legitimately share.
  static std::uint64_t boxed_events() {
    return boxed_events_counter().load(std::memory_order_relaxed);
  }
  static std::atomic<std::uint64_t>& boxed_events_counter() {
    static std::atomic<std::uint64_t> count{0};
    return count;
  }
};

static_assert(sizeof(EventNode) == 176, "unexpected EventNode padding");

/// Slab-backed free list of callback nodes. Slabs are bump-carved on first
/// use (no up-front link pass over cold memory); released nodes go onto an
/// intrusive LIFO so the next acquire reuses cache-hot memory. Retired
/// slabs park in a thread-local cache, so short-lived simulators (the
/// benchmark harness builds one per measurement) reuse warm, already
/// page-faulted memory instead of hitting the allocator.
class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;
  ~EventPool() {
    auto& cache = slab_cache();
    for (EventNode* c : chunks_) {
      if (cache.size() < kMaxCachedSlabs) {
        cache.push_back(c);
      } else {
        delete[] c;
      }
    }
  }

  EventNode* acquire() {
    if (free_ != nullptr) {
      EventNode* n = free_;
      free_ = n->next;
      return n;
    }
    if (bump_ == bump_end_) grow();
    return bump_++;
  }

  void release(EventNode* n) noexcept {
    n->next = free_;
    free_ = n;
  }

  /// Number of slabs ever allocated; flat across steady-state waves.
  std::size_t chunks() const { return chunks_.size(); }

 private:
  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kMaxCachedSlabs = 64;

  static std::vector<EventNode*>& slab_cache() {
    struct Cache {
      std::vector<EventNode*> slabs;
      ~Cache() {
        for (EventNode* s : slabs) delete[] s;
      }
    };
    thread_local Cache cache;
    return cache.slabs;
  }

  void grow() {
    auto& cache = slab_cache();
    EventNode* chunk;
    if (!cache.empty()) {
      chunk = cache.back();
      cache.pop_back();
    } else {
      chunk = new EventNode[kChunkNodes];
    }
    chunks_.push_back(chunk);
    bump_ = chunk;
    bump_end_ = chunk + kChunkNodes;
  }

  EventNode* free_ = nullptr;
  EventNode* bump_ = nullptr;
  EventNode* bump_end_ = nullptr;
  std::vector<EventNode*> chunks_;
};

/// Builds the queue representation for a callback: stateless callables
/// (empty, trivially destructible, default-constructible -- e.g. a
/// captureless lambda) collapse to a tagged bare function pointer;
/// everything else is constructed in place in a pooled node.
template <typename F>
EventItem make_callback_item(EventPool& pool, F&& fn) {
  using Fn = std::remove_cvref_t<F>;
  if constexpr (std::is_empty_v<Fn> && std::is_trivially_destructible_v<Fn> &&
                std::is_default_constructible_v<Fn>) {
    constexpr EventFn tramp = [] { Fn{}(); };
    const auto u = reinterpret_cast<std::uintptr_t>(tramp);
    if ((u & 3u) == 0) [[likely]] {
      return u | 2u;
    }
  }
  EventNode* n = pool.acquire();
  n->set_callback(std::forward<F>(fn));
  return node_item(n);
}

/// A FIFO over a power-of-two circular buffer: the one ring behind the
/// ready ring, the monotone run, every elided-event ledger
/// (sim/deferred.hpp) and the models' message FIFOs (a PCIe link's
/// posted queue, a NIC flow's go-back-N window). It starts at
/// `kInitialSlots` and doubles when full. A retired buffer parks in a thread-local cache, one per ring
/// type, so the next ring of that type starts at its predecessor's
/// high-water capacity, pre-faulted: short-lived simulators (the
/// benchmark harness builds one per measurement) skip the growth ramp.
template <typename Slot, std::size_t kInitialSlots>
class Ring {
  static_assert(kInitialSlots > 0 &&
                    (kInitialSlots & (kInitialSlots - 1)) == 0,
                "ring capacity must be a power of two");

 public:
  Ring() {
    v_.swap(buffer_cache());
    mask_ = v_.empty() ? 0 : v_.size() - 1;
  }
  ~Ring() {
    if (v_.size() > buffer_cache().size()) v_.swap(buffer_cache());
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// front(), back() and pop() require !empty().
  const Slot& front() const { return v_[head_]; }
  const Slot& back() const { return v_[(head_ + count_ - 1) & mask_]; }
  /// The entry `i` places behind the front (i < size()).
  const Slot& operator[](std::size_t i) const {
    return v_[(head_ + i) & mask_];
  }

  void push(Slot s) {
    if (count_ == v_.size()) grow();
    v_[(head_ + count_) & mask_] = std::move(s);
    ++count_;
  }

  Slot pop() noexcept {
    Slot s = std::move(v_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return s;
  }

 private:
  static std::vector<Slot>& buffer_cache() {
    thread_local std::vector<Slot> cache;
    return cache;
  }

  void grow() {
    const std::size_t cap = v_.empty() ? kInitialSlots : 2 * v_.size();
    std::vector<Slot> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(v_[(head_ + i) & mask_]);
    }
    v_ = std::move(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<Slot> v_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

/// An event at the current simulated time: every ready-ring entry shares
/// `now`, so the slot carries only the schedule seq.
struct ReadySlot {
  std::uint64_t seq;
  EventItem item;
};

/// A future event on the monotone run.
struct TimedSlot {
  std::int64_t t_ps;
  std::uint64_t seq;
  EventItem item;
};

/// FIFO of events at the current simulated time; sequence numbers are
/// monotone along the ring by construction.
using ReadyRing = Ring<ReadySlot, 64>;

/// FIFO of future events whose timestamps were scheduled in nondecreasing
/// order -- the dominant pattern (fixed link/processing latencies yield
/// monotone wakeups). Entries are strictly ordered by (time, seq) along
/// the ring by construction, so push and pop are O(1); out-of-order
/// timestamps fall back to the `EventHeap` and the two are merged by
/// (time, seq) at pop. Precondition of push: empty() or
/// t_ps >= back().t_ps.
using MonotoneRun = Ring<TimedSlot, 64>;

/// 4-ary implicit min-heap over (time, seq) for events in the future.
/// Keys live in the heap entries, so a sift touches one contiguous array;
/// entries are trivially copyable (24 bytes), so moves are cheap.
class EventHeap {
 public:
  EventHeap() { v_.swap(buffer_cache()); }
  ~EventHeap() {
    if (v_.capacity() > buffer_cache().capacity()) {
      v_.clear();
      v_.swap(buffer_cache());
    }
  }
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  TimePs top_time() const { return TimePs(v_[0].t_ps); }
  std::uint64_t top_seq() const { return v_[0].seq; }

  void push(TimePs t, std::uint64_t seq, EventItem item) {
    v_.push_back(Entry{t.ps(), seq, item});
    sift_up(v_.size() - 1);
  }

  EventItem pop() {
    const EventItem item = v_[0].item;
    const Entry last = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      v_[0] = last;
      sift_down(0);
    }
    return item;
  }

 private:
  struct Entry {
    std::int64_t t_ps;
    std::uint64_t seq;
    EventItem item;

    bool before(const Entry& o) const {
      if (t_ps != o.t_ps) return t_ps < o.t_ps;
      return seq < o.seq;
    }
  };

  // Retired backing arrays park in a thread-local cache (cleared, capacity
  // kept) so fresh heaps skip the doubling-growth ramp entirely.
  static std::vector<Entry>& buffer_cache() {
    thread_local std::vector<Entry> cache;
    return cache;
  }

  void sift_up(std::size_t i) {
    const Entry e = v_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!e.before(v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  // Bottom-up sift: descend the hole along min children without comparing
  // against `e`, then bubble `e` up. During a drain `e` (the old last leaf)
  // nearly always belongs at the bottom, so the bubble-up step is ~free and
  // each level costs only the min-of-children compares.
  void sift_down(std::size_t i) {
    const Entry e = v_[i];
    const std::size_t n = v_.size();
    std::size_t hole = i;
    for (;;) {
      const std::size_t first = 4 * hole + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (v_[c].before(v_[best])) best = c;
      }
      v_[hole] = v_[best];
      hole = best;
    }
    // Bubble `e` back up from the bottom of the descent path.
    while (hole > i) {
      const std::size_t parent = (hole - 1) / 4;
      if (!e.before(v_[parent])) break;
      v_[hole] = v_[parent];
      hole = parent;
    }
    v_[hole] = e;
  }

  std::vector<Entry> v_;
};

}  // namespace bb::sim::detail
