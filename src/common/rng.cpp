#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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

// The look-ahead's ring.
using Ahead = detail::NormalLookahead;
constexpr std::size_t kAheadPairs = Ahead::kPairs;
constexpr std::size_t kAheadDraws = Ahead::kDraws;
static_assert(std::has_single_bit(kAheadPairs) &&
              kAheadPairs % Ahead::kVector == 0);

std::size_t whole_vectors(std::size_t n) {
  return (n + Ahead::kVector - 1) / Ahead::kVector * Ahead::kVector;
}

// Sets the look-ahead's variate at ring index d, and its repeat.
void set_z(Ahead& a, std::size_t d, double z) {
  a.z[d] = z;
  if (d < Ahead::kBlockLanes) a.z[kAheadDraws + d] = z;
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

Rng::Rng(const Rng& other) { *this = other; }

Rng& Rng::operator=(const Rng& other) {
  if (this != &other) {
    seed_ = other.seed_;
    s_ = other.s_;
    spare_ = other.spare_;
    spare_z_ = other.spare_z_;
    spare_u1_ = other.spare_u1_;
    spare_u2_ = other.spare_u2_;
    exact_fallbacks_ = other.exact_fallbacks_;
  }
  if (other.cursor_ != other.end_) other.settle_into(*this);
  cursor_ = end_ = 0;
  return *this;
}

Rng::~Rng() = default;

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
  settle();
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

// At an even cursor the stream stands before a pair; at an odd one, after
// it, with its second variate held. The state steps there from the
// snapshot before the pair's vector.
void Rng::settle_into(Rng& to) const {
  const Ahead& a = *ahead_;
  const std::uint64_t pair = cursor_ / 2;
  const std::size_t j = pair % kAheadPairs;
  State s = a.vector_s[j / Ahead::kVector];
  for (std::uint64_t p = pair - j % Ahead::kVector; p < (cursor_ + 1) / 2;
       ++p) {
    (void)word_for_log(s);
    (void)next(s);
  }
  to.s_ = s;
  if (cursor_ % 2 == 0) {
    to.spare_ = Spare::kNone;
    return;
  }
  to.spare_u1_ = unit(a.w1[j]);
  to.spare_u2_ = unit(a.w2[j]);
  to.spare_z_ = a.z[cursor_ % kAheadDraws];
  to.spare_ = Spare::kLazy;
}

void Rng::drop_ahead() {
  settle_into(*this);
  ahead_->next_refill = std::clamp(whole_vectors((cursor_ + 1) / 2),
                                   Ahead::kVector, kAheadPairs);
  cursor_ = end_ = 0;
}

void Rng::refill(std::size_t pairs) {
  Ahead& a = *ahead_;
  const std::uint64_t first = end_ / 2;
  const std::uint64_t stop = first + pairs;
  BB_ASSERT(pairs % Ahead::kVector == 0 && stop <= cursor_ / 2 + kAheadPairs);
  State s = s_;
  for (std::uint64_t pair = first; pair < stop; ++pair) {
    const std::size_t j = pair % kAheadPairs;
    if (j % Ahead::kVector == 0) a.vector_s[j / Ahead::kVector] = s;
    a.w1[j] = word_for_log(s);
    a.w2[j] = next(s);
  }
  s_ = s;
  // The new pairs' variates, in one run of the ring or two, and the
  // repeat of those the ring starts with.
  const auto fill = [&a](std::size_t j, std::size_t count) {
    detail::fill_normal_lanes(&a.w1[j], &a.w2[j], &a.z[2 * j], count);
    const std::size_t end = std::min(2 * (j + count), Ahead::kBlockLanes);
    if (2 * j < end) {
      std::copy(&a.z[2 * j], &a.z[end], &a.z[kAheadDraws + 2 * j]);
    }
  };
  const std::size_t j0 = first % kAheadPairs;
  const std::size_t run = std::min(pairs, kAheadPairs - j0);
  fill(j0, run);
  if (run < pairs) fill(0, pairs - run);
  end_ = 2 * stop;
}

TimePs Rng::lognormal_ps(const LognormalParams& p) {
  if (cursor_ == end_) [[unlikely]] {
    if (spare_ != Spare::kNone) return draw_spare(p);
    if (ahead_ == nullptr) ahead_ = std::make_unique<Ahead>();
    refill(ahead_->next_refill);
    ahead_->next_refill = std::min(2 * ahead_->next_refill, kAheadPairs);
  }
  const std::size_t d = cursor_++ % kAheadDraws;
  TimePs ps;
  if (bracketed_ps(p.mu + p.sigma * ahead_->z[d], ps)) [[likely]] return ps;
  return draw_exact(p, d);
}

TimePs Rng::draw_spare(const LognormalParams& p) {
  const Spare spare = std::exchange(spare_, Spare::kNone);
  TimePs ps;
  if (bracketed_ps(p.mu + p.sigma * spare_z_, ps)) return ps;
  ++exact_fallbacks_;
  const double z = spare == Spare::kExact
                       ? spare_z_
                       : box_muller(spare_u1_, spare_u2_).second;
  return TimePs::from_ns(lognormal_of(p, z));
}

TimePs Rng::draw_exact(const LognormalParams& p, std::size_t d) {
  ++exact_fallbacks_;
  Ahead& a = *ahead_;
  const NormalPair exact = box_muller(unit(a.w1[d / 2]), unit(a.w2[d / 2]));
  if (d % 2 == 1) return TimePs::from_ns(lognormal_of(p, exact.second));
  // The pair's second draw starts from the exact variate, as it would
  // from a kExact spare.
  set_z(a, d + 1, exact.second);
  return TimePs::from_ns(lognormal_of(p, exact.first));
}

void Rng::lognormal_ps_block(std::span<const LognormalParams> cycle,
                             std::size_t n, LognormalBlock& block) {
  BB_ASSERT(!cycle.empty() && cycle.size() <= LognormalBlock::kMaxCycle &&
            n <= LognormalBlock::kCapacity);
  if (!block.holds(cycle)) block.hold(cycle);
  block.size_ = n;
  // A held spare (so no look-ahead) makes the first draw, into ps_[0].
  block.lead_ = spare_ != Spare::kNone && n > 0 ? 1 : 0;
  if (block.lead_ == 1) {
    block.entry_ = *this;
    block.ps_[0] = draw_spare(cycle[0]);
  }
  const std::size_t draws = n - block.lead_;
  if (end_ - cursor_ < draws) {
    // As many pairs as the ring holds past the cursor's, in whole vectors.
    if (ahead_ == nullptr) ahead_ = std::make_unique<Ahead>();
    refill((cursor_ / 2 + kAheadPairs) / Ahead::kVector * Ahead::kVector -
           end_ / 2);
  }
  block.start_ = cursor_;
  block.fallbacks_ = exact_fallbacks_;
  block.fell_count_ = 0;
  if (draws == 0) return;
  // Whole vectors of lanes from the cursor on, through the ring's repeat.
  // Open lanes past the last draw only cost a look.
  if (detail::fill_lognormal_lanes(
          &block.mu_[block.lead_], &block.sigma_[block.lead_],
          &ahead_->z[cursor_ % kAheadDraws], &block.ps_[1], block.open_.data(),
          whole_vectors(draws)) > 0) [[unlikely]] {
    fix_open_lanes(block, draws);
  }
  cursor_ += draws;
}

// Draws whose bracket is open, as lognormal_ps evaluates them: exactly.
// After a pair's first draw falls back, its second starts from the exact
// variate and is checked again.
void Rng::fix_open_lanes(LognormalBlock& block, std::size_t draws) {
  TimePs* out = block.ps_.data() + 1;
  const double* mu = block.mu_.data() + block.lead_;
  const double* sigma = block.sigma_.data() + block.lead_;
  const auto fall_back = [&](std::size_t d) {
    block.fell_[block.fell_count_++] = static_cast<std::uint16_t>(d);
    out[d] = draw_exact({mu[d], sigma[d]}, (block.start_ + d) % kAheadDraws);
  };
  for (std::size_t d = 0; d < draws; ++d) {
    if (block.open_[d] == 0) continue;
    fall_back(d);
    if ((block.start_ + d) % 2 == 1 || d + 1 == draws) continue;
    ++d;
    const double y =
        mu[d] + sigma[d] * ahead_->z[(block.start_ + d) % kAheadDraws];
    if (!bracketed_ps(y, out[d])) fall_back(d);
  }
}

void Rng::rewind(const LognormalBlock& block, std::size_t k) {
  BB_ASSERT(k <= block.size_);
  BB_ASSERT_MSG(cursor_ == block.start_ + (block.size_ - block.lead_),
                "the stream drew after the block");
  if (k < block.lead_) {
    *this = block.entry_;
    return;
  }
  const std::size_t d = k - block.lead_;
  exact_fallbacks_ = block.fallbacks_ + block.fell_before(d);
  cursor_ = block.start_ + d;
}

double Rng::exponential(double mean) {
  return -mean * std::log(uniform01_for_log());
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

}  // namespace bb
