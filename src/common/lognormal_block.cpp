// The lane kernels of LognormalBlock: the approximations of
// Rng::lognormal_ps as plain loops without branches, so the compiler
// vectorizes them. This file alone is built with -fno-math-errno (GCC
// keeps a sqrt that may set errno out of a vector loop) and
// -ffp-contract=off (the x86-64-v4 clone must not fuse multiply-adds, so
// every lane computes the bits the scalar path does).

#include <cmath>

#include "common/lognormal_block.hpp"

namespace bb::detail {

namespace {

// r = sqrt(-2 ln u1). ln as in rng.cpp's approx_log: m folded to
// [sqrt(1/2), sqrt(2)), with the fold selected per lane.
[[gnu::always_inline]] inline void radius_loop(LognormalLanes& l,
                                               std::size_t pairs) {
  for (std::size_t j = 0; j < pairs; ++j) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(l.u1[j]);
    const std::uint64_t m_bits = (bits & kMantissaBits) | kOneBits;
    const bool fold = m_bits >= kSqrt2Bits;
    const double m1 = std::bit_cast<double>(m_bits);
    const double m = fold ? m1 * 0.5 : m1;
    const auto e =
        static_cast<std::int64_t>(bits >> 52) - (fold ? 1022 : 1023);
    const double ln =
        static_cast<double>(e) * kLn2 + two_atanh((m - 1.0) / (m + 1.0));
    l.r[j] = std::sqrt(-2.0 * ln);
  }
}

// z = r (cos 2 pi u2, sin 2 pi u2), as rng.cpp's approx_cos_sin_2pi, with
// the quadrant's swap and signs selected per lane.
[[gnu::always_inline]] inline void unit_loop(LognormalLanes& l,
                                             std::size_t pairs) {
  for (std::size_t j = 0; j < pairs; ++j) {
    const double q = 4.0 * l.u2[j];
    const double k = (q + kRoundMagic) - kRoundMagic;
    const double x = (q - k) * kHalfPi;
    const double sx = sin_kernel(x);
    const double cx = cos_kernel(x);
    const std::int64_t quadrant = static_cast<std::int64_t>(k) & 3;
    const bool swap = (quadrant & 1) != 0;
    const double c = swap ? sx : cx;
    const double s = swap ? cx : sx;
    l.z[2 * j] = l.r[j] * (quadrant == 1 || quadrant == 2 ? -c : c);
    l.z[2 * j + 1] = l.r[j] * ((quadrant & 2) != 0 ? -s : s);
  }
}

// The bracket of lognormal_ps: both ends of [v (1 - 2^-32), v (1 + 2^-32)]
// through from_ns (v > 0, so from_ns truncates ns 1000 + 0.5). y is
// clamped into exp's range and the counts below 2^62, so no lane
// overflows; a lane clamped either way is open.
[[gnu::always_inline]] inline std::int64_t exp_loop(LognormalLanes& l,
                                                    std::size_t draws) {
  constexpr double kMaxPs = 0x1.0p62;
  const double* mu = l.mu.data() + l.phase;
  const double* sigma = l.sigma.data() + l.phase;
  std::int64_t open = 0;
  for (std::size_t d = 0; d < draws; ++d) {
    const double y = mu[d] + sigma[d] * l.z[d];
    const double y_in =
        y < -kExpLimit ? -kExpLimit : (y > kExpLimit ? kExpLimit : y);
    const double v = approx_exp(y_in);
    const double lo = v * kBracketLo * 1000.0 + 0.5;
    const double hi = v * kBracketHi * 1000.0 + 0.5;
    const auto lo_ps = static_cast<std::int64_t>(lo < kMaxPs ? lo : kMaxPs);
    const auto hi_ps = static_cast<std::int64_t>(hi < kMaxPs ? hi : kMaxPs);
    l.ps[1 + d] = TimePs(lo_ps);
    // Summed, not or-ed: GCC 12 vectorizes this form.
    l.open[d] = (lo_ps != hi_ps) + !(std::fabs(y) < kExpLimit) +
                (hi >= kMaxPs);
    open += l.open[d];
  }
  return open;
}

}  // namespace

#if defined(__x86_64__)
[[gnu::target_clones("arch=x86-64-v4", "default")]]
#endif
std::int64_t fill_lognormal_lanes(LognormalLanes& lanes, std::size_t pairs,
                                  std::size_t draws) {
  radius_loop(lanes, pairs);
  unit_loop(lanes, pairs);
  return exp_loop(lanes, draws);
}

std::int64_t fill_lognormal_lanes_baseline(LognormalLanes& lanes,
                                           std::size_t pairs,
                                           std::size_t draws) {
  radius_loop(lanes, pairs);
  unit_loop(lanes, pairs);
  return exp_loop(lanes, draws);
}

}  // namespace bb::detail
