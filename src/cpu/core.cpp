#include "cpu/core.hpp"

#include "common/assert.hpp"

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

TimePs Core::replay_until(std::span<const CostSpec* const> costs,
                          TimePs start, TimePs until, bool inclusive,
                          std::uint64_t& passes) {
  while (start < until || (inclusive && start == until)) {
    TimePs pass = TimePs::zero();
    for (const CostSpec* c : costs) pass += sample(*c);
    BB_ASSERT_MSG(pass > TimePs::zero(), "an idle pass must take time");
    busy_ += pass;
    start += pass;
    ++passes;
  }
  return start;
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
