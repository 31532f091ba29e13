#include "common/rng.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace bb {

namespace {

struct NormalPair {
  double first;   // r cos(theta)
  double second;  // r sin(theta)
};

// The Box-Muller pair of (u1, u2). normal() and every exact fallback of
// lognormal_ps() evaluate this one function, so a variate has one value
// whichever path asks for it.
NormalPair box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

// exp(mu + sigma z), the lognormal of one normal variate. Rng::lognormal
// and lognormal_ps()'s fallback call this one out-of-line function, so
// both paths see the same floating-point contraction of the sum.
[[gnu::noinline]] double lognormal_of(const Rng::LognormalParams& p,
                                      double z) {
  return std::exp(p.mu + p.sigma * z);
}

// --- Bounded approximations for lognormal_ps() ------------------------------
//
// Branch-free; their error bounds, against the libm results the exact path
// computes, are in docs/SIM_ENGINE.md "Exact draws, fast".

constexpr double kLn2 = 0x1.62e42fefa39efp-1;
// Table selects (namespace scope, so they are not rebuilt per call).
constexpr double kFoldScale[2] = {1.0, 0.5};
constexpr double kSinSign[4] = {1.0, 1.0, -1.0, -1.0};
constexpr double kCosSign[4] = {1.0, -1.0, -1.0, 1.0};

// Polynomials below are evaluated in Estrin's scheme: independent pairs
// first, then powers of the variable, so the dependency chain is about
// log2(degree) multiply-adds long instead of one per term.

// ln(u) for a normal u > 0, with a small *relative* error also near u = 1.
// u = m 2^e with m folded to [sqrt(1/2), sqrt(2)); then m - 1 is exact and
// ln m = 2 atanh(s), s = (m - 1)/(m + 1), |s| <= 0.1716. 2 atanh(s) is
// 2s + s R(s^2), with fdlibm's minimax R (error below 2^-58.45).
double approx_log(double u) {
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kOne = std::bit_cast<std::uint64_t>(1.0);
  constexpr std::uint64_t kSqrt2 =
      std::bit_cast<std::uint64_t>(0x1.6a09e667f3bcdp0);
  constexpr double kLg1 = 6.666666666666735130e-01,
                   kLg2 = 3.999999999940941908e-01,
                   kLg3 = 2.857142874366239149e-01,
                   kLg4 = 2.222219843214978396e-01,
                   kLg5 = 1.818357216161805012e-01,
                   kLg6 = 1.531383769920937332e-01,
                   kLg7 = 1.479819860511658591e-01;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::uint64_t m_bits = (bits & kMantissa) | kOne;
  const int fold = m_bits >= kSqrt2 ? 1 : 0;
  const int e = static_cast<int>(bits >> 52) - 1023 + fold;
  const double m = std::bit_cast<double>(m_bits) * kFoldScale[fold];
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double r = z * (((kLg1 + z * kLg2) + z2 * (kLg3 + z * kLg4)) +
                        z4 * ((kLg5 + z * kLg6) + z2 * kLg7));
  return static_cast<double>(e) * kLn2 + (2.0 * s + s * r);
}

// Rounds to the nearest integer (ties to even) for |x| < 2^51.
constexpr double kRoundMagic = 0x1.8p52;

// {cos 2 pi u, sin 2 pi u} for u in [0, 1). q = 4u is exact, so is
// f = q - k for the nearest integer k; x = f pi/2 lies in [-pi/4, pi/4],
// where fdlibm's minimax kernels for sin and cos are within 2^-58. The
// quadrant k mod 4 picks and signs sin x and cos x by table, not by branch.
NormalPair approx_cos_sin_2pi(double u) {
  constexpr double kHalfPi = 0x1.921fb54442d18p0;
  constexpr double kS1 = -1.66666666666666324348e-01,
                   kS2 = 8.33333333332248946124e-03,
                   kS3 = -1.98412698298579493134e-04,
                   kS4 = 2.75573137070700676789e-06,
                   kS5 = -2.50507602534068634195e-08,
                   kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02,
                   kC2 = -1.38888888888741095749e-03,
                   kC3 = 2.48015872894767294178e-05,
                   kC4 = -2.75573143513906633035e-07,
                   kC5 = 2.08757232129817482790e-09,
                   kC6 = -1.13596475577881948265e-11;
  const double q = 4.0 * u;
  const double k = (q + kRoundMagic) - kRoundMagic;
  const double x = (q - k) * kHalfPi;
  const double w = x * x;
  const double w2 = w * w;
  const double w4 = w2 * w2;
  const double sin_poly =
      ((kS1 + w * kS2) + w2 * (kS3 + w * kS4)) + w4 * (kS5 + w * kS6);
  const double cos_poly =
      ((kC1 + w * kC2) + w2 * (kC3 + w * kC4)) + w4 * (kC5 + w * kC6);
  const double sc[2] = {x + x * w * sin_poly, (1.0 - 0.5 * w) + w2 * cos_poly};
  const int quadrant = static_cast<int>(k) & 3;
  const int swap = quadrant & 1;
  return {kCosSign[quadrant] * sc[swap ^ 1], kSinSign[quadrant] * sc[swap]};
}

// 2^(j/32), j = 0..31.
const std::array<double, 32> kExp2Frac = [] {
  std::array<double, 32> t{};
  for (int j = 0; j < 32; ++j) t[j] = std::exp2(j / 32.0);
  return t;
}();

// e^y for |y| < 700. y = (32n + j) ln2/32 + t with |t| <= ln2/64, the
// reduction split Cody-Waite style (n ln2_hi/32 is exact); then
// e^y = 2^n 2^(j/32) e^t, with e^t to degree 5 (within 2.3e-15).
double approx_exp(double y) {
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

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng Rng::fork() { return Rng(next_u64()); }

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  BB_ASSERT(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  switch (spare_) {
    case Spare::kExact:
      spare_ = Spare::kNone;
      return spare_z_;
    case Spare::kLazy:
      spare_ = Spare::kNone;
      return box_muller(spare_u1_, spare_u2_).second;
    case Spare::kNone:
      break;
  }
  const double u1 = uniform01_for_log();
  const double u2 = uniform01();
  const NormalPair z = box_muller(u1, u2);
  spare_z_ = z.second;
  spare_ = Spare::kExact;
  return z.first;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng::LognormalParams Rng::lognormal_params(double mean, double stddev) {
  BB_ASSERT(mean > 0.0);
  const double cv2 = (stddev / mean) * (stddev / mean);
  const double sigma2 = std::log1p(cv2);
  return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double Rng::lognormal(const LognormalParams& p) {
  return lognormal_of(p, normal());
}

TimePs Rng::lognormal_ps(const LognormalParams& p) {
  // The variate this draw uses: exact if the spare is, else approximated.
  const Spare spare = spare_;
  double z;
  if (spare == Spare::kNone) {
    spare_u1_ = uniform01_for_log();
    spare_u2_ = uniform01();
    const double r = std::sqrt(-2.0 * approx_log(spare_u1_));
    const NormalPair unit = approx_cos_sin_2pi(spare_u2_);
    z = r * unit.first;
    spare_z_ = r * unit.second;
    spare_ = Spare::kLazy;
  } else {
    z = spare_z_;
    spare_ = Spare::kNone;
  }
  const double y = p.mu + p.sigma * z;
  if (std::fabs(y) < 700.0) [[likely]] {
    // v is within 5e-13 (relative) of the exact path's value, far inside
    // a 2^-32 bracket. from_ns is monotone, so if both ends of the
    // bracket round to one count, the exact value rounds to it too.
    constexpr double kBracket = 0x1.0p-32;
    const double v = approx_exp(y);
    const TimePs lo = TimePs::from_ns(v * (1.0 - kBracket));
    if (lo == TimePs::from_ns(v * (1.0 + kBracket))) [[likely]] return lo;
  }
  ++exact_fallbacks_;
  switch (spare) {
    case Spare::kExact:
      break;
    case Spare::kLazy:
      z = box_muller(spare_u1_, spare_u2_).second;
      break;
    case Spare::kNone: {
      const NormalPair exact = box_muller(spare_u1_, spare_u2_);
      z = exact.first;
      spare_z_ = exact.second;
      spare_ = Spare::kExact;
      break;
    }
  }
  return TimePs::from_ns(lognormal_of(p, z));
}

double Rng::exponential(double mean) {
  return -mean * std::log(uniform01_for_log());
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

}  // namespace bb
