#pragma once
// Cost specifications for CPU primitives.
//
// Every software component the paper times (§3-§5) is represented as a
// `CostSpec`: a mean duration plus a jitter model. Samples are drawn from a
// moment-matched lognormal (real timing noise is positively skewed) with an
// optional rare heavy tail that models OS/SMM "hiccups" -- the paper's
// Fig. 7 shows exactly this shape (median < mean, max of ~35 us against a
// 282 ns mean).

#include "common/rng.hpp"
#include "common/units.hpp"

namespace bb::cpu {

struct CostSpec {
  /// Mean duration in nanoseconds.
  double mean_ns = 0.0;
  /// Coefficient of variation of the lognormal body (sd = cv * mean).
  /// Zero means a deterministic cost.
  double cv = 0.0;
  /// Probability that a sample additionally incurs a hiccup.
  double tail_prob = 0.0;
  /// Mean of the exponential hiccup duration.
  double tail_mean_ns = 0.0;

  static constexpr CostSpec fixed(double ns) { return CostSpec{ns, 0.0, 0.0, 0.0}; }
  static constexpr CostSpec jittered(double ns, double cv_) {
    return CostSpec{ns, cv_, 0.0, 0.0};
  }

  TimePs mean() const { return TimePs::from_ns(mean_ns); }

  TimePs sample(Rng& rng) const {
    const bool jitter = cv > 0.0 && mean_ns > 0.0;
    if (tail_prob > 0.0) {
      double v = jitter ? rng.lognormal(lognormal()) : mean_ns;
      if (rng.bernoulli(tail_prob)) v += rng.exponential(tail_mean_ns);
      return TimePs::from_ns(v);
    }
    // Without a tail the body alone is the sample: the hot case, drawn
    // by the libm-free path that is exact to the picosecond.
    return jitter ? rng.lognormal_ps(lognormal()) : TimePs::from_ns(mean_ns);
  }

  /// Whether sample() is rng.lognormal_ps(lognormal()): jittered, no tail.
  bool body_only_jitter() const {
    return !(tail_prob > 0.0) && cv > 0.0 && mean_ns > 0.0;
  }

  /// Returns a copy with the mean scaled by `f` (what-if experiments).
  CostSpec scaled(double f) const {
    CostSpec c = *this;
    c.mean_ns *= f;
    return c;
  }

  /// The lognormal body's parameters (requires cv > 0 and mean_ns > 0).
  /// Sampling is hot and the fields are set once at configuration, so
  /// they are derived once per (mean_ns, cv) and kept with the spec.
  const Rng::LognormalParams& lognormal() const {
    if (derived_mean_ns_ != mean_ns || derived_cv_ != cv) {
      derived_ = Rng::lognormal_params(mean_ns, cv * mean_ns);
      derived_mean_ns_ = mean_ns;
      derived_cv_ = cv;
    }
    return derived_;
  }

  // Behind lognormal(), keyed by the fields it was derived from. Each
  // Core samples its own copy of the cost model, so no two threads share
  // a cache.
  mutable Rng::LognormalParams derived_{};
  mutable double derived_mean_ns_ = 0.0;
  mutable double derived_cv_ = 0.0;
};

}  // namespace bb::cpu
