#include "cpu/core.hpp"

#include <array>
#include <optional>

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
  // A plain jittered cost draws from lognormal parameters derived once
  // here rather than once per draw; a cost with a hiccup tail or without
  // jitter samples as consume() does. Both paths draw the same stream.
  std::array<std::optional<Rng::LognormalParams>, 4> lognormal;
  BB_ASSERT_MSG(costs.size() <= lognormal.size(), "too many costs per pass");
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const CostSpec& c = *costs[i];
    if (c.cv > 0.0 && c.mean_ns > 0.0 && c.tail_prob <= 0.0) {
      lognormal[i] = Rng::lognormal_params(c.mean_ns, c.cv * c.mean_ns);
    }
  }
  while (start < until || (inclusive && start == until)) {
    TimePs pass = TimePs::zero();
    for (std::size_t i = 0; i < costs.size(); ++i) {
      TimePs d = lognormal[i] ? TimePs::from_ns(rng_.lognormal(*lognormal[i]))
                              : costs[i]->sample(rng_);
      if (speed_factor_ != 1.0) d = d.scaled(speed_factor_);
      pass += d;
    }
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
