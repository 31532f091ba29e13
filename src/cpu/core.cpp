#include "cpu/core.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"
#include "common/lognormal_block.hpp"

namespace bb::cpu {

Core::Core(sim::Simulator& simulator, CpuCostModel model, std::string name)
    : sim_(simulator),
      model_(model),
      name_(std::move(name)),
      rng_(simulator.rng().fork()) {}

void Core::consume(TimePs d) {
  BB_ASSERT_MSG(d >= TimePs::zero(), "CPU work cannot be negative");
  wake_parked();
  pending_ += d;
  busy_ += d;
}

TimePs Core::consume(const CostSpec& spec) {
  wake_parked();
  const TimePs d = sample(spec);
  consume(d);
  return d;
}

namespace {

// Below this many mean passes left, replay_blocks draws pass by pass: a
// block has a fixed cost, and measured slower than one or two passes.
constexpr double kMinBlockPasses = 2.0;

// Whether a pass starting at t is replayed by a wake at `until`.
bool before_wake(TimePs t, TimePs until, bool inclusive) {
  return t < until || (inclusive && t == until);
}

}  // namespace

TimePs Core::replay_until(std::span<const CostSpec* const> costs,
                          TimePs start, TimePs until, bool inclusive,
                          std::uint64_t& passes) {
  if (!before_wake(start, until, inclusive)) return start;
  if (costs.size() <= LognormalBlock::kMaxCycle &&
      std::all_of(costs.begin(), costs.end(), [](const CostSpec* c) {
        return c->body_only_jitter();
      })) {
    return replay_blocks(costs, start, until, inclusive, passes);
  }
  return replay_each(costs, start, until, inclusive, passes);
}

TimePs Core::replay_each(std::span<const CostSpec* const> costs,
                         TimePs start, TimePs until, bool inclusive,
                         std::uint64_t& passes) {
  while (before_wake(start, until, inclusive)) {
    TimePs pass = TimePs::zero();
    for (const CostSpec* c : costs) pass += sample(*c);
    BB_ASSERT_MSG(pass > TimePs::zero(), "an idle pass must take time");
    busy_ += pass;
    start += pass;
    ++passes;
  }
  return start;
}

// Draws the passes a block at a time: as many as start before the wake
// at the mean pass, which is the time left over the mean plus about a
// half, rounded up. Falling short costs another block, or the last few
// passes one by one; going over draws values the stream is rewound past.
// The passes are scanned in order and the stream rewound to the end of
// the last one that starts before the wake, so it stands where drawing
// pass by pass leaves it.
TimePs Core::replay_blocks(std::span<const CostSpec* const> costs,
                           TimePs start, TimePs until, bool inclusive,
                           std::uint64_t& passes) {
  double pass_mean_ns = 0.0;
  for (const CostSpec* c : costs) pass_mean_ns += c->mean_ns;
  pass_mean_ns *= speed_factor_;
  const auto passes_left = [&] {
    return (until - start).to_ns() / pass_mean_ns;
  };
  // Checked before the block is set up, which a short gap would not repay.
  if (passes_left() < kMinBlockPasses) {
    return replay_each(costs, start, until, inclusive, passes);
  }
  // Scratch only, filled and read within this call.
  static thread_local LognormalBlock block;
  const std::size_t m = costs.size();
  std::array<Rng::LognormalParams, LognormalBlock::kMaxCycle> cycle;
  for (std::size_t c = 0; c < m; ++c) cycle[c] = costs[c]->lognormal();
  const std::size_t max_passes = LognormalBlock::kCapacity / m;
  while (true) {
    const double left = passes_left();
    if (left < kMinBlockPasses) {
      return replay_each(costs, start, until, inclusive, passes);
    }
    const std::size_t want = static_cast<std::size_t>(
        std::min(left + 1.0, static_cast<double>(max_passes)));
    rng_.lognormal_ps_block({cycle.data(), m}, want * m, block);
    const TimePs* v = block.values().data();
    const TimePs block_start = start;
    std::size_t used = 0;
    do {
      TimePs pass = TimePs::zero();
      for (std::size_t c = 0; c < m; ++c) pass += scaled(*v++);
      BB_ASSERT_MSG(pass > TimePs::zero(), "an idle pass must take time");
      start += pass;
      ++used;
    } while (used < want && before_wake(start, until, inclusive));
    busy_ += start - block_start;
    passes += used;
    if (used < want) {
      rng_.rewind(block, used * m);
      return start;
    }
    if (!before_wake(start, until, inclusive)) return start;
  }
}

sim::Task<void> Core::flush() {
  if (pending_ > TimePs::zero()) {
    const TimePs d = pending_;
    pending_ = TimePs::zero();
    co_await sim_.delay(d);
  }
}

TimePs Core::virtual_now() const { return sim_.now() + pending_; }

}  // namespace bb::cpu
