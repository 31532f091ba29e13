#pragma once
// Deterministic random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use the standard <random> distributions (their sequences are
// implementation-defined). The engine is xoshiro256**; distributions are
// implemented here with fixed algorithms.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/units.hpp"

namespace bb {

class LognormalBlock;
namespace detail {
struct NormalLookahead;
}

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
///
/// lognormal_ps draws its variates from a look-ahead of Box-Muller pairs
/// (docs/SIM_ENGINE.md "Exact draws, fast"). Every other draw, and a copy,
/// first settles the stream at the look-ahead's cursor, so the values and
/// the stream are those of drawing one variate at a time. A move copies.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);
  ~Rng();

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
    settle();
    return next(s_);
  }
  /// Uniform in [0, 1) with 53 bits of precision.
  double uniform01() { return unit(next_u64()); }
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
  /// Fills `block` with n <= LognormalBlock::kCapacity draws, draw i being
  /// lognormal_ps(cycle[i % cycle.size()]). Values, stream and
  /// exact_fallbacks() end as n lognormal_ps calls would leave them, bit
  /// for bit, but the approximations run in SIMD lanes
  /// (docs/SIM_ENGINE.md "Exact draws, fast").
  void lognormal_ps_block(std::span<const LognormalParams> cycle,
                          std::size_t n, LognormalBlock& block);
  /// Returns the stream to just after the first k draws of `block`, as k
  /// lognormal_ps calls would leave it. `block` is the last draw this
  /// stream made.
  void rewind(const LognormalBlock& block, std::size_t k);
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
  using State = std::array<std::uint64_t, 4>;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// xoshiro256** 1.0 (Blackman & Vigna), public domain reference
  /// algorithm, on any state: the block draw steps a local copy, which
  /// stays in registers.
  static std::uint64_t next(State& s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
  /// Uniform in [0, 1) from one word (the lane kernels compute the same).
  static double unit(std::uint64_t word) {
    return static_cast<double>(word >> 11) * 0x1.0p-53;
  }
  /// The word of Box-Muller's u1: one whose unit() is not 0 (so at least
  /// 2^-53), so its log is finite.
  static std::uint64_t word_for_log(State& s) {
    std::uint64_t word;
    do {
      word = next(s);
    } while (word >> 11 == 0);
    return word;
  }
  double uniform01_for_log() {
    settle();
    return unit(word_for_log(s_));
  }

  /// Returns the stream to the look-ahead's cursor and empties the
  /// look-ahead: what every draw but lognormal_ps does first.
  void settle() {
    if (cursor_ != end_) [[unlikely]] drop_ahead();
  }
  void drop_ahead();
  /// Sets `to`'s stream and spare to this stream at its cursor.
  void settle_into(Rng& to) const;
  /// Draws `pairs` pairs after the look-ahead's last, a multiple of
  /// NormalLookahead::kVector that keeps the ring within kPairs of the
  /// cursor's pair.
  void refill(std::size_t pairs);
  /// lognormal_ps from the spare (there is no look-ahead).
  TimePs draw_spare(const LognormalParams& p);
  /// lognormal_ps from the look-ahead's variate at ring index d,
  /// evaluated exactly.
  TimePs draw_exact(const LognormalParams& p, std::size_t d);
  void fix_open_lanes(LognormalBlock& block, std::size_t draws);

  // The second variate of the last Box-Muller pair, until it is drawn.
  // kExact holds its value in spare_z_. kLazy holds the pair's uniforms
  // and, in spare_z_, the variate lognormal_ps would use (an approximation
  // unless the pair's first draw fell back); the exact value is computed
  // when something needs it.
  enum class Spare : std::uint8_t { kNone, kExact, kLazy };

  std::uint64_t seed_ = 0;
  // The stream after the look-ahead's last pair; with no look-ahead, the
  // stream itself.
  State s_{};
  // Only with no look-ahead (cursor_ == end_).
  Spare spare_ = Spare::kNone;
  double spare_z_ = 0.0;
  double spare_u1_ = 0.0;
  double spare_u2_ = 0.0;
  std::uint64_t exact_fallbacks_ = 0;
  // A ring of NormalLookahead::kPairs pairs, allocated by the first
  // lognormal_ps. Variates are counted from the last time it was empty;
  // variate v is at ring index v % (2 kPairs), and [cursor_, end_) are not
  // drawn yet.
  std::unique_ptr<detail::NormalLookahead> ahead_;
  std::uint64_t cursor_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace bb
