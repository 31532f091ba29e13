#pragma once
// Deterministic random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use the standard <random> distributions (their sequences are
// implementation-defined). The engine is xoshiro256**; distributions are
// implemented here with fixed algorithms.

#include <array>
#include <cstdint>

#include "common/units.hpp"

namespace bb {

/// Mixes a 64-bit seed into a well-distributed stream (used for seeding).
struct SplitMix64 {
  std::uint64_t state;
  constexpr explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  constexpr std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

/// Pure seed derivation: the child seed is a function of (parent seed,
/// label) and NOTHING else -- no shared counter, no stream position, no
/// thread identity. This is the seed-forking contract `bb::exec` relies
/// on for parallel == serial bit-identity: a sweep forks one seed per
/// grid *index*, so the assignment cannot depend on execution order.
/// Distinct labels under one parent yield distinct, decorrelated seeds
/// (each (parent, label) pair passes through two full SplitMix64 mixes).
constexpr std::uint64_t derive_seed(std::uint64_t parent_seed,
                                    std::uint64_t label) {
  SplitMix64 outer(parent_seed);
  const std::uint64_t parent_mixed = outer.next();
  SplitMix64 inner(parent_mixed ^
                   (label * 0xD1B54A32D192ED03ull + 0x2545F4914F6CDD1Dull));
  return inner.next();
}

/// Deterministic PRNG with fixed-algorithm distributions.
///
/// Two forking styles, with different contracts:
///  * `fork()` -- stateful: consumes one value from *this* stream, so the
///    child depends on how far the parent has advanced. Used by
///    components constructed in a fixed order on one simulator (e.g.
///    cpu::Core); order IS the contract there.
///  * `fork(label)` -- pure: the child is `derive_seed(seed(), label)`,
///    a function of the construction seed and the label only. The parent
///    stream is not touched and repeated calls return the same stream.
///    This is the only style permitted for cross-job forking in
///    `bb::exec` sweeps.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// The seed this stream was constructed from (pure forks key off it).
  std::uint64_t seed() const { return seed_; }

  /// Derives an independent child stream (for per-component jitter
  /// sources). Stateful: advances this stream by one value.
  Rng fork();

  /// Pure labelled fork: child = Rng(derive_seed(seed(), label)). Does
  /// not advance or read this stream's position; a pure function of
  /// (construction seed, label).
  Rng fork(std::uint64_t label) const {
    return Rng(derive_seed(seed_, label));
  }

  std::uint64_t next_u64() {
    // xoshiro256** 1.0 (Blackman & Vigna), public domain reference
    // algorithm.
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1) with 53 bits of precision.
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_u64(std::uint64_t n);
  /// Standard normal via Box-Muller (caches the second variate).
  double normal();
  double normal(double mean, double stddev);
  /// Parameters of the underlying normal of a lognormal.
  struct LognormalParams {
    double mu = 0.0;
    double sigma = 0.0;
  };
  /// The parameters whose lognormal has the given mean and standard
  /// deviation (moment-matched). Callers drawing many samples of one
  /// distribution derive them once and draw with lognormal(params).
  static LognormalParams lognormal_params(double mean, double stddev);
  double lognormal(const LognormalParams& p);
  /// `TimePs::from_ns(lognormal(p))`, bit for bit, drawing the same
  /// stream, but without libm on the common path: the draw is
  /// approximated and kept only when the approximation's error bracket
  /// rounds to a single picosecond count (docs/SIM_ENGINE.md "Exact
  /// draws, fast"); otherwise it is evaluated exactly.
  TimePs lognormal_ps(const LognormalParams& p);
  /// How many lognormal_ps() draws the bracket left open, so that they
  /// were evaluated exactly.
  std::uint64_t exact_fallbacks() const { return exact_fallbacks_; }
  /// Lognormal such that the *resulting* distribution has the given
  /// mean and standard deviation (moment-matched).
  double lognormal_by_moments(double mean, double stddev) {
    return lognormal(lognormal_params(mean, stddev));
  }
  double exponential(double mean);
  /// True with probability p.
  bool bernoulli(double p);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Box-Muller's u1, kept away from 0 so its log is finite.
  double uniform01_for_log() {
    double u1;
    do {
      u1 = uniform01();
    } while (u1 <= 1e-300);
    return u1;
  }

  // The second variate of the last Box-Muller pair, until it is drawn.
  // kExact holds its value in spare_z_. kLazy holds the pair's uniforms
  // and, in spare_z_, only an approximation (left by lognormal_ps); the
  // exact value is computed when something needs it.
  enum class Spare : std::uint8_t { kNone, kExact, kLazy };

  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, 4> s_{};
  Spare spare_ = Spare::kNone;
  double spare_z_ = 0.0;
  double spare_u1_ = 0.0;
  double spare_u2_ = 0.0;
  std::uint64_t exact_fallbacks_ = 0;
};

}  // namespace bb
