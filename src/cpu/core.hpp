#pragma once
// A single CPU core on the simulated timeline.
//
// Software layers (LLP/HLP/benchmark loops) run as one coroutine per core.
// Most of their work is pure time consumption; only at interaction points
// (an MMIO write to the NIC, a poll of a CQ in host memory) does the core
// need to synchronize with the rest of the simulated world. `consume()`
// therefore accrues cost into a pending accumulator synchronously, and
// `flush()` -- a coroutine -- converts the accumulated cost into simulated
// delay before any interaction. `virtual_now()` is the core-local clock
// (simulator time plus pending work), which is what the emulated
// cntvct_el0 timer reads.

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "cpu/cost.hpp"
#include "cpu/cost_model.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace bb::cpu {

class Core {
 public:
  Core(sim::Simulator& simulator, CpuCostModel model, std::string name = "core");

  sim::Simulator& simulator() { return sim_; }
  const CpuCostModel& costs() const { return model_; }
  CpuCostModel& costs() { return model_; }
  const std::string& name() const { return name_; }
  Rng& rng() { return rng_; }

  /// Accrues a fixed duration of CPU work.
  void consume(TimePs d);
  /// Samples `spec`, applies the speed factor, and accrues the result;
  /// returns the accrued duration.
  TimePs consume(const CostSpec& spec);

  /// Samples `spec` from this core's stream without the speed factor and
  /// without accruing it, waking a parked loop first (see set_parked).
  TimePs draw(const CostSpec& spec) {
    wake_parked();
    return spec.sample(rng_);
  }

  /// Arithmetic replay of skipped idle passes (docs/SIM_ENGINE.md
  /// "Parked waiters"). Passes start back to back at `start`; each draws
  /// every cost in `costs`, in order, exactly as consume()
  /// would -- same RNG stream, speed factor and busy-time accounting --
  /// without accruing pending work. Replays every pass that starts
  /// before `until` (at or before it if `inclusive`), adds their number
  /// to `passes`, and returns the start of the first pass not replayed.
  /// Passes whose costs are all tail-free and jittered are drawn in
  /// blocks (Rng::lognormal_ps_block), to the same values and stream.
  TimePs replay_until(std::span<const CostSpec* const> costs, TimePs start,
                      TimePs until, bool inclusive, std::uint64_t& passes);
  /// Hands over the pending work without a delay: what a parked loop
  /// does in place of the flush() that would end its pass.
  TimePs take_pending() { return std::exchange(pending_, TimePs::zero()); }

  /// The progress loop parked on this core, if any. Its skipped passes
  /// draw from this core's RNG and would flush its pending work, so any
  /// other use of the core (consume, draw, set_speed_factor) wakes it
  /// first: two processes sharing a core keep their interleaved draw
  /// order. Drawing from rng() directly bypasses this; use draw().
  void set_parked(sim::Parked* p) { parked_ = p; }
  sim::Parked* parked() const { return parked_; }

  /// Scales sampled costs. Models the gap between profiled means
  /// (instrumented, cold-path) and hot-loop execution (warm icache and
  /// branch predictors) that makes analyzer-observed loop times fall a few
  /// percent below the sum of profiled component means (§4.2).
  void set_speed_factor(double f) {
    wake_parked();
    speed_factor_ = f;
  }
  double speed_factor() const { return speed_factor_; }

  /// Converts all pending work into simulated delay. Must be awaited before
  /// interacting with any other simulation entity.
  sim::Task<void> flush();

  /// Core-local time: simulator time plus un-flushed pending work.
  TimePs virtual_now() const;

  /// Total CPU time this core has consumed (for utilisation accounting).
  /// A parked loop's skipped passes join it when the loop wakes.
  TimePs busy_time() const { return busy_; }

 private:
  void wake_parked() {
    if (parked_ != nullptr) [[unlikely]] {
      parked_->wake(sim::Tie::kPassFirst);
    }
  }
  TimePs scaled(TimePs d) const {
    return speed_factor_ != 1.0 ? d.scaled(speed_factor_) : d;
  }
  TimePs sample(const CostSpec& spec) { return scaled(spec.sample(rng_)); }
  // replay_until pass by pass, and in blocks for passes whose costs are
  // all drawn by Rng::lognormal_ps, at most LognormalBlock::kMaxCycle.
  TimePs replay_each(std::span<const CostSpec* const> costs, TimePs start,
                     TimePs until, bool inclusive, std::uint64_t& passes);
  TimePs replay_blocks(std::span<const CostSpec* const> costs, TimePs start,
                       TimePs until, bool inclusive, std::uint64_t& passes);

  sim::Simulator& sim_;
  CpuCostModel model_;
  std::string name_;
  Rng rng_;
  TimePs pending_ = TimePs::zero();
  TimePs busy_ = TimePs::zero();
  double speed_factor_ = 1.0;
  sim::Parked* parked_ = nullptr;
};

}  // namespace bb::cpu
