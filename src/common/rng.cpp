#include "common/rng.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace bb {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t Rng::next_u64() {
  // xoshiro256** 1.0 (Blackman & Vigna), public domain reference algorithm.
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

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

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
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1;
  do {
    u1 = uniform01();
  } while (u1 <= 1e-300);
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
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
  return std::exp(p.mu + p.sigma * normal());
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform01();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

}  // namespace bb
