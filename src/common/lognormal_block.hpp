#pragma once
// Blocks of Rng::lognormal_ps draws made in SIMD lanes
// (docs/SIM_ENGINE.md "Exact draws, fast").
//
// The approximations behind lognormal_ps are shared here by the scalar
// path (rng.cpp) and the block kernels (lognormal_block.cpp), so the two
// compute the same bits: every operation is a correctly rounded IEEE one,
// and no multiply-add is fused (the kernels are built with
// -ffp-contract=off; baseline x86-64 has no FMA for rng.cpp to use).

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace bb {

namespace detail {

inline constexpr double kLn2 = 0x1.62e42fefa39efp-1;
// Rounds to the nearest integer (ties to even) for |x| < 2^51.
inline constexpr double kRoundMagic = 0x1.8p52;
inline constexpr double kHalfPi = 0x1.921fb54442d18p0;
// Bits of the largest mantissa ln() leaves unfolded: sqrt(2) rounded.
inline constexpr std::uint64_t kSqrt2Bits =
    std::bit_cast<std::uint64_t>(0x1.6a09e667f3bcdp0);
inline constexpr std::uint64_t kMantissaBits = (std::uint64_t{1} << 52) - 1;
inline constexpr std::uint64_t kOneBits = std::bit_cast<std::uint64_t>(1.0);
// Both ends of the bracket around an approximated draw.
inline constexpr double kBracketLo = 1.0 - 0x1.0p-32;
inline constexpr double kBracketHi = 1.0 + 0x1.0p-32;
// The fast path covers |mu + sigma z| below this.
inline constexpr double kExpLimit = 700.0;

// Polynomials below are evaluated in Estrin's scheme: independent pairs
// first, then powers of the variable, so the dependency chain is about
// log2(degree) multiply-adds long instead of one per term.

/// ln m = 2 atanh(s) with s = (m - 1)/(m + 1), |s| <= 0.1716: 2s + s R(s^2)
/// with fdlibm's minimax R (error below 2^-58.45).
constexpr double two_atanh(double s) {
  constexpr double kLg1 = 6.666666666666735130e-01,
                   kLg2 = 3.999999999940941908e-01,
                   kLg3 = 2.857142874366239149e-01,
                   kLg4 = 2.222219843214978396e-01,
                   kLg5 = 1.818357216161805012e-01,
                   kLg6 = 1.531383769920937332e-01,
                   kLg7 = 1.479819860511658591e-01;
  const double z = s * s;
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double r = z * (((kLg1 + z * kLg2) + z2 * (kLg3 + z * kLg4)) +
                        z4 * ((kLg5 + z * kLg6) + z2 * kLg7));
  return 2.0 * s + s * r;
}

/// sin x for |x| <= pi/4, fdlibm's minimax kernel (within 2^-58).
constexpr double sin_kernel(double x) {
  constexpr double kS1 = -1.66666666666666324348e-01,
                   kS2 = 8.33333333332248946124e-03,
                   kS3 = -1.98412698298579493134e-04,
                   kS4 = 2.75573137070700676789e-06,
                   kS5 = -2.50507602534068634195e-08,
                   kS6 = 1.58969099521155010221e-10;
  const double w = x * x;
  const double w2 = w * w;
  const double w4 = w2 * w2;
  const double p =
      ((kS1 + w * kS2) + w2 * (kS3 + w * kS4)) + w4 * (kS5 + w * kS6);
  return x + x * w * p;
}

/// cos x for |x| <= pi/4, fdlibm's minimax kernel (within 2^-58).
constexpr double cos_kernel(double x) {
  constexpr double kC1 = 4.16666666666666019037e-02,
                   kC2 = -1.38888888888741095749e-03,
                   kC3 = 2.48015872894767294178e-05,
                   kC4 = -2.75573143513906633035e-07,
                   kC5 = 2.08757232129817482790e-09,
                   kC6 = -1.13596475577881948265e-11;
  const double w = x * x;
  const double w2 = w * w;
  const double w4 = w2 * w2;
  const double p =
      ((kC1 + w * kC2) + w2 * (kC3 + w * kC4)) + w4 * (kC5 + w * kC6);
  return (1.0 - 0.5 * w) + w2 * p;
}

/// 2^(j/32), j = 0..31, filled by std::exp2 (rng.cpp).
extern const std::array<double, 32> kExp2Frac;

/// e^y for |y| <= 700. y = (32n + j) ln2/32 + t with |t| <= ln2/64, the
/// reduction split Cody-Waite style (n ln2_hi/32 is exact); then
/// e^y = 2^n 2^(j/32) e^t, with e^t to degree 5 (within 2.3e-15).
inline double approx_exp(double y) {
  constexpr double k32OverLn2 = 32.0 / kLn2;
  // fdlibm's split of ln 2: the high part has 32 significant bits.
  constexpr double kLn2Over32Hi = 0x1.62e42feep-1 / 32;
  constexpr double kLn2Over32Lo = 0x1.a39ef35793c76p-33 / 32;
  const double nd = (y * k32OverLn2 + kRoundMagic) - kRoundMagic;
  const auto n = static_cast<std::int64_t>(nd);
  const double t = (y - nd * kLn2Over32Hi) - nd * kLn2Over32Lo;
  const double t2 = t * t;
  const double et = ((1.0 + t) + t2 * (1.0 / 2 + t * (1.0 / 6))) +
                    (t2 * t2) * (1.0 / 24 + t * (1.0 / 120));
  // 2^(j/32) 2^n is exact, and off the polynomial's dependency chain.
  const double scale = kExp2Frac[static_cast<std::size_t>(n & 31)] *
                       std::bit_cast<double>(
                           static_cast<std::uint64_t>((n >> 5) + 1023) << 52);
  return scale * et;
}

/// Lanes of one block: Box-Muller uniforms per pair, parameters, variates
/// and results per draw. A block may start on the second variate of a
/// pair, so at most kDraws / 2 pairs fill kDraws draws.
struct LognormalLanes {
  static constexpr std::size_t kDraws = 256;
  static constexpr std::size_t kPairs = kDraws / 2;
  static constexpr std::size_t kMaxCycle = 8;
  // Inputs. mu and sigma repeat a cycle of parameters from lane 0 and are
  // kept from block to block; draw d takes lane phase + d.
  alignas(64) std::array<double, kPairs> u1{};
  alignas(64) std::array<double, kPairs> u2{};
  alignas(64) std::array<double, kDraws + kMaxCycle> mu{};
  alignas(64) std::array<double, kDraws + kMaxCycle> sigma{};
  std::size_t phase = 0;
  // r = sqrt(-2 ln u1) per pair, then z = (r cos 2 pi u2, r sin 2 pi u2)
  // at 2j and 2j + 1.
  alignas(64) std::array<double, kPairs> r{};
  alignas(64) std::array<double, kDraws> z{};
  // Draw d's from_ns(v (1 - 2^-32)), v ~ exp(mu + sigma z), at ps[1 + d]
  // (ps[0] is left for a block's first draw from a held variate), and
  // whether the bracket around v is open (it spans two picosecond counts,
  // or |mu + sigma z| >= 700): such a draw is evaluated exactly.
  alignas(64) std::array<TimePs, kDraws + 1> ps{};
  alignas(64) std::array<std::int64_t, kDraws> open{};
};

/// Fills r and z for `pairs` pairs, then ps and open for `draws` draws
/// (draws <= 2 pairs), and returns how many draws are open. Plain loops
/// without branches, built twice: an x86-64-v4 clone and a baseline one,
/// and the CPU picks at load time.
std::int64_t fill_lognormal_lanes(LognormalLanes& lanes, std::size_t pairs,
                                  std::size_t draws);
/// The same loops, baseline build only: what the CPU's pick must match.
std::int64_t fill_lognormal_lanes_baseline(LognormalLanes& lanes,
                                           std::size_t pairs,
                                           std::size_t draws);

}  // namespace detail

/// One block of Rng::lognormal_ps draws: their values, and what the
/// stream needs to return to any point inside the block (one xoshiro
/// snapshot per Box-Muller pair). Scratch: fill it with
/// Rng::lognormal_ps_block and read it before the next fill.
class LognormalBlock {
 public:
  /// Most draws one block holds.
  static constexpr std::size_t kCapacity = detail::LognormalLanes::kDraws;
  /// Longest cycle of parameters one block draws from.
  static constexpr std::size_t kMaxCycle = detail::LognormalLanes::kMaxCycle;
  /// Builds of the lane kernels: the CPU's pick (the default) or the
  /// baseline one.
  using Kernels = std::int64_t (*)(detail::LognormalLanes&,
                                   std::size_t pairs, std::size_t draws);

  explicit LognormalBlock(Kernels kernels = &detail::fill_lognormal_lanes)
      : kernels_(kernels) {}

  /// The last block's draws, in order.
  std::span<const TimePs> values() const {
    return {lanes_.ps.data() + 1 - lead_, size_};
  }

 private:
  friend class Rng;
  using State = std::array<std::uint64_t, 4>;
  static constexpr std::size_t kPairs = detail::LognormalLanes::kPairs;

  Kernels kernels_;
  detail::LognormalLanes lanes_;
  std::size_t size_ = 0;
  // The stream on entry, restored in full by a rewind to no draws.
  Rng entry_;
  // 1 if the entry spare made the first draw; pairs start after it.
  std::size_t lead_ = 0;
  // The xoshiro state before pair j, and after the last one.
  std::array<State, kPairs + 1> pair_s_{};
  // exact_fallbacks() before the pairs, and the pair draws that fell
  // back, in order.
  std::uint64_t fallbacks_ = 0;
  std::array<std::uint16_t, kCapacity> fell_{};
  std::size_t fell_count_ = 0;

  // The length of the cycle the parameter lanes hold (0: none yet).
  std::size_t cycle_size_ = 0;

  bool holds(std::span<const Rng::LognormalParams> cycle) const {
    if (cycle.size() != cycle_size_) return false;
    for (std::size_t c = 0; c < cycle.size(); ++c) {
      if (lanes_.mu[c] != cycle[c].mu || lanes_.sigma[c] != cycle[c].sigma) {
        return false;
      }
    }
    return true;
  }
  void hold(std::span<const Rng::LognormalParams> cycle) {
    for (std::size_t d = 0; d < lanes_.mu.size(); ++d) {
      lanes_.mu[d] = cycle[d % cycle.size()].mu;
      lanes_.sigma[d] = cycle[d % cycle.size()].sigma;
    }
    cycle_size_ = cycle.size();
  }
  // How many pair draws before draw d fell back.
  std::size_t fell_before(std::size_t d) const {
    std::size_t i = 0;
    while (i < fell_count_ && fell_[i] < d) ++i;
    return i;
  }
};

}  // namespace bb
