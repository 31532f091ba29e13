// The lane kernels of the look-ahead and of LognormalBlock: the
// approximations of Rng::lognormal_ps as plain loops without branches, so
// the compiler vectorizes them. This file alone is built with
// -fno-math-errno (GCC keeps a sqrt that may set errno out of a vector
// loop) and -ffp-contract=off (the x86-64-v4 clone must not fuse
// multiply-adds, so every lane computes the bits the scalar path does).

#include <cmath>

#include "common/lognormal_block.hpp"

namespace bb::detail {

namespace {

constexpr double kHalfPi = 0x1.921fb54442d18p0;
// Bits of the largest mantissa ln() leaves unfolded: sqrt(2) rounded.
constexpr std::uint64_t kSqrt2Bits =
    std::bit_cast<std::uint64_t>(0x1.6a09e667f3bcdp0);
constexpr std::uint64_t kMantissaBits = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kOneBits = std::bit_cast<std::uint64_t>(1.0);

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

// Rng::unit: uniform in [0, 1) from one word.
constexpr double unit(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

// r = sqrt(-2 ln u1). ln u1 = e ln 2 + ln m, with u1 = m 2^e and m folded
// to [sqrt(1/2), sqrt(2)), selected per lane: then m - 1 is exact and ln m
// = 2 atanh((m - 1)/(m + 1)) keeps its relative accuracy near u1 = 1.
[[gnu::always_inline]] inline void radius_loop(
    const std::uint64_t* __restrict__ w1, double* __restrict__ r,
    std::size_t pairs) {
  for (std::size_t j = 0; j < pairs; ++j) {
    const double u1 = unit(w1[j]);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(u1);
    const std::uint64_t m_bits = (bits & kMantissaBits) | kOneBits;
    const bool fold = m_bits >= kSqrt2Bits;
    const double m1 = std::bit_cast<double>(m_bits);
    const double m = fold ? m1 * 0.5 : m1;
    const auto e =
        static_cast<std::int64_t>(bits >> 52) - (fold ? 1022 : 1023);
    const double ln =
        static_cast<double>(e) * kLn2 + two_atanh((m - 1.0) / (m + 1.0));
    r[j] = std::sqrt(-2.0 * ln);
  }
}

// z = r (cos 2 pi u2, sin 2 pi u2). q = 4 u2 is exact, so is f = q - k for
// the nearest integer k; x = f pi/2 lies in [-pi/4, pi/4], where the
// kernels above hold. The quadrant k mod 4 swaps and signs sin x and
// cos x, selected per lane.
[[gnu::always_inline]] inline void unit_loop(
    const std::uint64_t* __restrict__ w2, const double* __restrict__ r,
    double* __restrict__ z, std::size_t pairs) {
  for (std::size_t j = 0; j < pairs; ++j) {
    const double q = 4.0 * unit(w2[j]);
    const double k = (q + kRoundMagic) - kRoundMagic;
    const double x = (q - k) * kHalfPi;
    const double sx = sin_kernel(x);
    const double cx = cos_kernel(x);
    const std::int64_t quadrant = static_cast<std::int64_t>(k) & 3;
    const bool swap = (quadrant & 1) != 0;
    const double c = swap ? sx : cx;
    const double s = swap ? cx : sx;
    z[2 * j] = r[j] * (quadrant == 1 || quadrant == 2 ? -c : c);
    z[2 * j + 1] = r[j] * ((quadrant & 2) != 0 ? -s : s);
  }
}

[[gnu::always_inline]] inline void normal_lanes(const std::uint64_t* w1,
                                                const std::uint64_t* w2,
                                                double* z, std::size_t pairs) {
  alignas(64) std::array<double, NormalLookahead::kPairs> r;
  radius_loop(w1, r.data(), pairs);
  unit_loop(w2, r.data(), z, pairs);
}

// The bracket of lognormal_ps: both ends of [v (1 - 2^-32), v (1 + 2^-32)]
// through from_ns (v > 0, so from_ns truncates ns 1000 + 0.5). y is
// clamped into exp's range and the counts below 2^62, so no lane
// overflows; a lane clamped either way is open.
[[gnu::always_inline]] inline std::int64_t exp_loop(
    const double* __restrict__ mu, const double* __restrict__ sigma,
    const double* __restrict__ z, TimePs* __restrict__ ps,
    std::int64_t* __restrict__ open, std::size_t draws) {
  constexpr double kMaxPs = 0x1.0p62;
  std::int64_t opened = 0;
  for (std::size_t d = 0; d < draws; ++d) {
    const double y = mu[d] + sigma[d] * z[d];
    const double y_in =
        y < -kExpLimit ? -kExpLimit : (y > kExpLimit ? kExpLimit : y);
    const double v = approx_exp(y_in);
    const double lo = v * kBracketLo * 1000.0 + 0.5;
    const double hi = v * kBracketHi * 1000.0 + 0.5;
    const auto lo_ps = static_cast<std::int64_t>(lo < kMaxPs ? lo : kMaxPs);
    const auto hi_ps = static_cast<std::int64_t>(hi < kMaxPs ? hi : kMaxPs);
    ps[d] = TimePs(lo_ps);
    // Summed, not or-ed: GCC 12 vectorizes this form.
    open[d] = (lo_ps != hi_ps) + !(std::fabs(y) < kExpLimit) + (hi >= kMaxPs);
    opened += open[d];
  }
  return opened;
}

}  // namespace

#if defined(__x86_64__)
#define BB_LANE_CLONES [[gnu::target_clones("arch=x86-64-v4", "default")]]
#else
#define BB_LANE_CLONES
#endif

BB_LANE_CLONES void fill_normal_lanes(const std::uint64_t* w1,
                                      const std::uint64_t* w2, double* z,
                                      std::size_t pairs) {
  normal_lanes(w1, w2, z, pairs);
}

BB_LANE_CLONES std::int64_t fill_lognormal_lanes(const double* mu,
                                                 const double* sigma,
                                                 const double* z, TimePs* ps,
                                                 std::int64_t* open,
                                                 std::size_t draws) {
  return exp_loop(mu, sigma, z, ps, open, draws);
}

#undef BB_LANE_CLONES

void fill_normal_lanes_baseline(const std::uint64_t* w1,
                                const std::uint64_t* w2, double* z,
                                std::size_t pairs) {
  normal_lanes(w1, w2, z, pairs);
}

std::int64_t fill_lognormal_lanes_baseline(const double* mu,
                                           const double* sigma,
                                           const double* z, TimePs* ps,
                                           std::int64_t* open,
                                           std::size_t draws) {
  return exp_loop(mu, sigma, z, ps, open, draws);
}

}  // namespace bb::detail
