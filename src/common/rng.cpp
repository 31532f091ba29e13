#include "common/rng.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "common/lognormal_block.hpp"

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
// computes, are in docs/SIM_ENGINE.md "Exact draws, fast". The polynomials
// and exp are shared with the block kernels (lognormal_block.hpp); the
// scalar reductions below pick by table where the kernels select per lane.

// Table selects (namespace scope, so they are not rebuilt per call).
constexpr double kFoldScale[2] = {1.0, 0.5};
constexpr double kSinSign[4] = {1.0, 1.0, -1.0, -1.0};
constexpr double kCosSign[4] = {1.0, -1.0, -1.0, 1.0};

// ln(u) for a normal u > 0, with a small *relative* error also near u = 1.
// u = m 2^e with m folded to [sqrt(1/2), sqrt(2)); then m - 1 is exact and
// ln m = 2 atanh((m - 1)/(m + 1)).
double approx_log(double u) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::uint64_t m_bits =
      (bits & detail::kMantissaBits) | detail::kOneBits;
  const int fold = m_bits >= detail::kSqrt2Bits ? 1 : 0;
  const int e = static_cast<int>(bits >> 52) - 1023 + fold;
  const double m = std::bit_cast<double>(m_bits) * kFoldScale[fold];
  return static_cast<double>(e) * detail::kLn2 +
         detail::two_atanh((m - 1.0) / (m + 1.0));
}

// {cos 2 pi u, sin 2 pi u} for u in [0, 1). q = 4u is exact, so is
// f = q - k for the nearest integer k; x = f pi/2 lies in [-pi/4, pi/4],
// where fdlibm's minimax kernels for sin and cos are within 2^-58. The
// quadrant k mod 4 picks and signs sin x and cos x by table, not by branch.
NormalPair approx_cos_sin_2pi(double u) {
  const double q = 4.0 * u;
  const double k = (q + detail::kRoundMagic) - detail::kRoundMagic;
  const double x = (q - k) * detail::kHalfPi;
  const double sc[2] = {detail::sin_kernel(x), detail::cos_kernel(x)};
  const int quadrant = static_cast<int>(k) & 3;
  const int swap = quadrant & 1;
  return {kCosSign[quadrant] * sc[swap ^ 1], kSinSign[quadrant] * sc[swap]};
}

// Sets ps = from_ns(exp(y)) and returns true when the 2^-32 bracket
// around the approximation rounds to a single count. v is within 5e-13
// (relative) of the exact path's value, far inside the bracket, and
// from_ns is monotone, so the exact value rounds to that count too.
// (An out-parameter: a returned std::optional went through the stack.)
[[gnu::always_inline]] inline bool bracketed_ps(double y, TimePs& ps) {
  if (std::fabs(y) < detail::kExpLimit) [[likely]] {
    const double v = detail::approx_exp(y);
    ps = TimePs::from_ns(v * detail::kBracketLo);
    if (ps == TimePs::from_ns(v * detail::kBracketHi)) [[likely]] return true;
  }
  return false;
}

}  // namespace

const std::array<double, 32> detail::kExp2Frac = [] {
  std::array<double, 32> t{};
  for (int j = 0; j < 32; ++j) t[j] = std::exp2(j / 32.0);
  return t;
}();

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
  TimePs ps;
  if (bracketed_ps(p.mu + p.sigma * z, ps)) [[likely]] return ps;
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

void Rng::lognormal_ps_block(std::span<const LognormalParams> cycle,
                             std::size_t n, LognormalBlock& block) {
  BB_ASSERT(!cycle.empty() && cycle.size() <= LognormalBlock::kMaxCycle &&
            n <= LognormalBlock::kCapacity);
  if (!block.holds(cycle)) block.hold(cycle);
  block.size_ = n;
  block.entry_ = *this;
  detail::LognormalLanes& lanes = block.lanes_;
  // A held variate makes the first draw, into ps[0]; whole pairs make the
  // rest, into ps[1 + d].
  block.lead_ = spare_ != Spare::kNone && n > 0 ? 1 : 0;
  if (block.lead_ == 1) lanes.ps[0] = lognormal_ps(cycle[0]);
  const std::size_t draws = n - block.lead_;
  const std::size_t pairs = (draws + 1) / 2;
  State s = s_;
  for (std::size_t j = 0; j < pairs; ++j) {
    block.pair_s_[j] = s;
    lanes.u1[j] = uniform01_for_log(s);
    lanes.u2[j] = unit(next(s));
  }
  block.pair_s_[pairs] = s;
  s_ = s;
  lanes.phase = block.lead_ % cycle.size();
  block.fallbacks_ = exact_fallbacks_;
  block.fell_count_ = 0;
  if (block.kernels_(lanes, pairs, draws) > 0) [[unlikely]] {
    fix_open_lanes(block, draws);
  }
  // An odd count leaves the last pair's second variate held.
  if (draws % 2 == 1) hold_second(block, pairs - 1);
}

// Draws whose bracket is open, as lognormal_ps evaluates them: exactly.
// After a pair's first draw falls back, its second starts from the exact
// variate, as it would from a kExact spare, and is checked again.
void Rng::fix_open_lanes(LognormalBlock& block, std::size_t draws) {
  const detail::LognormalLanes& lanes = block.lanes_;
  TimePs* out = block.lanes_.ps.data() + 1;
  const auto fell = [&](std::size_t d) {
    block.fell_[block.fell_count_++] = static_cast<std::uint16_t>(d);
    ++exact_fallbacks_;
  };
  const auto params = [&](std::size_t d) {
    return LognormalParams{lanes.mu[lanes.phase + d],
                           lanes.sigma[lanes.phase + d]};
  };
  for (std::size_t d = 0; d < draws; ++d) {
    if (lanes.open[d] == 0) continue;
    const NormalPair exact = box_muller(lanes.u1[d / 2], lanes.u2[d / 2]);
    fell(d);
    if (d % 2 == 1) {
      out[d] = TimePs::from_ns(lognormal_of(params(d), exact.second));
      continue;
    }
    out[d] = TimePs::from_ns(lognormal_of(params(d), exact.first));
    if (++d == draws) break;
    const LognormalParams second = params(d);
    if (!bracketed_ps(second.mu + second.sigma * exact.second, out[d])) {
      fell(d);
      out[d] = TimePs::from_ns(lognormal_of(second, exact.second));
    }
  }
}

void Rng::rewind(const LognormalBlock& block, std::size_t k) {
  BB_ASSERT(k <= block.size_);
  if (k == 0) {
    *this = block.entry_;
    return;
  }
  const std::size_t d = k - block.lead_;
  exact_fallbacks_ = block.fallbacks_ + block.fell_before(d);
  if (d % 2 == 0) {
    s_ = block.pair_s_[d / 2];
    spare_ = Spare::kNone;
  } else {
    s_ = block.pair_s_[d / 2 + 1];
    hold_second(block, d / 2);
  }
}

void Rng::hold_second(const LognormalBlock& block, std::size_t j) {
  const detail::LognormalLanes& lanes = block.lanes_;
  if (block.fell_before(2 * j + 1) != block.fell_before(2 * j)) {
    spare_z_ = box_muller(lanes.u1[j], lanes.u2[j]).second;
    spare_ = Spare::kExact;
  } else {
    spare_u1_ = lanes.u1[j];
    spare_u2_ = lanes.u2[j];
    spare_z_ = lanes.z[2 * j + 1];
    spare_ = Spare::kLazy;
  }
}

double Rng::exponential(double mean) {
  return -mean * std::log(uniform01_for_log());
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

}  // namespace bb
