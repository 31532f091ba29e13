#pragma once
// Deterministic random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use the standard <random> distributions (their sequences are
// implementation-defined). The engine is xoshiro256**; distributions are
// implemented here with fixed algorithms.

#include <array>
#include <cstdint>

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

  std::uint64_t next_u64();
  /// Uniform in [0, 1) with 53 bits of precision.
  double uniform01();
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
  /// Lognormal such that the *resulting* distribution has the given
  /// mean and standard deviation (moment-matched).
  double lognormal_by_moments(double mean, double stddev) {
    return lognormal(lognormal_params(mean, stddev));
  }
  double exponential(double mean);
  /// True with probability p.
  bool bernoulli(double p);

 private:
  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace bb
