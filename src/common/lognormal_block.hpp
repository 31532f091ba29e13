#pragma once
// The look-ahead of Box-Muller variates behind Rng::lognormal_ps, and
// blocks of its draws, made in SIMD lanes (docs/SIM_ENGINE.md "Exact
// draws, fast").
//
// approx_exp is shared here by the scalar path (rng.cpp) and the lane
// kernels (lognormal_block.cpp), so the two compute the same bits: every
// operation is a correctly rounded IEEE one, and no multiply-add is fused
// (the kernels are built with -ffp-contract=off; baseline x86-64 has no
// FMA for rng.cpp to use).

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
// Both ends of the bracket around an approximated draw.
inline constexpr double kBracketLo = 1.0 - 0x1.0p-32;
inline constexpr double kBracketHi = 1.0 + 0x1.0p-32;
// The fast path covers |mu + sigma z| below this.
inline constexpr double kExpLimit = 700.0;

// exp's polynomial is evaluated in Estrin's scheme (see
// lognormal_block.cpp), like the lane kernels' log, sin and cos.

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

/// The ring of Box-Muller pairs an Rng draws ahead of its cursor
/// (docs/SIM_ENGINE.md "Exact draws, fast"): the words of each pair's
/// uniforms, its approximate variates, and the xoshiro state before each
/// vector of pairs, from which the stream can step to any variate. Once a
/// pair's first draw fell back, its second variate here is the exact one.
struct NormalLookahead {
  /// Pairs in the ring.
  static constexpr std::size_t kPairs = 64;
  static constexpr std::size_t kDraws = 2 * kPairs;
  /// Doubles in one 64-byte vector. Pairs are drawn kVector at a time, at
  /// aligned places in the ring, so the lane kernels run whole aligned
  /// vectors.
  static constexpr std::size_t kVector = 8;
  /// The most draws a block takes from one place: a ring's length less
  /// what the cursor's pair and a part-drawn vector of pairs hold.
  static constexpr std::size_t kBlockDraws = kDraws - 2 * kVector + 1;
  /// Lanes of such a block, in whole vectors.
  static constexpr std::size_t kBlockLanes =
      (kBlockDraws + kVector - 1) / kVector * kVector;
  using State = std::array<std::uint64_t, 4>;

  // u1 = unit(w1[j]) and u2 = unit(w2[j]) (Rng::unit) of pair j.
  alignas(64) std::array<std::uint64_t, kPairs> w1{};
  alignas(64) std::array<std::uint64_t, kPairs> w2{};
  // Pair j's variates (r cos 2 pi u2, r sin 2 pi u2) at 2j and 2j + 1.
  // The first kBlockLanes repeat after the ring, so a block's lanes are
  // one run from wherever it starts.
  alignas(64) std::array<double, kDraws + kBlockLanes> z{};
  // The state before pair kVector v.
  std::array<State, kPairs / kVector> vector_s{};
  // How many pairs lognormal_ps draws into an empty ring: about as many
  // as the stream drew between its last two settles, doubled each time
  // the ring runs dry, so a stream whose other draws come often computes
  // few pairs it drops.
  std::size_t next_refill = kPairs;
};

/// Fills z[2j] and z[2j + 1] from the words w1[j] and w2[j] for `pairs`
/// <= NormalLookahead::kPairs pairs: r = sqrt(-2 ln u1), then r cos and
/// r sin of 2 pi u2. Plain loops without branches, built twice: an
/// x86-64-v4 clone and a baseline one, and the CPU picks at load time.
void fill_normal_lanes(const std::uint64_t* w1, const std::uint64_t* w2,
                       double* z, std::size_t pairs);
/// Draw d's from_ns(v (1 - 2^-32)), v ~ exp(mu[d] + sigma[d] z[d]), into
/// ps[d], and in open[d] whether the bracket around v is open (it spans
/// two picosecond counts, or |mu + sigma z| >= 700): such a draw is
/// evaluated exactly. Returns how many draws are open. Built as
/// fill_normal_lanes is.
std::int64_t fill_lognormal_lanes(const double* mu, const double* sigma,
                                  const double* z, TimePs* ps,
                                  std::int64_t* open, std::size_t draws);
/// The same loops, baseline build only: what the CPU's pick must match.
void fill_normal_lanes_baseline(const std::uint64_t* w1,
                                const std::uint64_t* w2, double* z,
                                std::size_t pairs);
std::int64_t fill_lognormal_lanes_baseline(const double* mu,
                                           const double* sigma,
                                           const double* z, TimePs* ps,
                                           std::int64_t* open,
                                           std::size_t draws);

}  // namespace detail

/// One block of Rng::lognormal_ps draws: their values, and where the
/// stream's look-ahead stood, so Rng::rewind can return it to any point
/// inside the block. Scratch: fill it with Rng::lognormal_ps_block and
/// read it before the next fill.
class LognormalBlock {
 public:
  /// Most draws one block holds: what the look-ahead holds from any
  /// cursor.
  static constexpr std::size_t kCapacity =
      detail::NormalLookahead::kBlockDraws;
  /// Longest cycle of parameters one block draws from.
  static constexpr std::size_t kMaxCycle = 8;

  /// The last block's draws, in order.
  std::span<const TimePs> values() const {
    return {ps_.data() + 1 - lead_, size_};
  }

 private:
  friend class Rng;

  static constexpr std::size_t kLanes = detail::NormalLookahead::kBlockLanes;

  // mu and sigma repeat a cycle of parameters from lane 0 and are kept
  // from block to block; the draw after the lead takes lane lead_ + d.
  alignas(64) std::array<double, kLanes + 1> mu_{};
  alignas(64) std::array<double, kLanes + 1> sigma_{};
  // Draw d after the lead at ps_[1 + d]; ps_[0] is the lead draw. Lanes
  // past the last draw are computed and ignored.
  alignas(64) std::array<TimePs, kLanes + 1> ps_{};
  alignas(64) std::array<std::int64_t, kLanes> open_{};
  std::size_t size_ = 0;
  // 1 if the entry spare made the first draw; the look-ahead the rest.
  std::size_t lead_ = 0;
  // The stream on entry when lead_ is 1, restored by a rewind to no draws.
  Rng entry_;
  // The look-ahead cursor at the first draw after the lead.
  std::uint64_t start_ = 0;
  // exact_fallbacks() after the lead, and the draws after it that fell
  // back, in order.
  std::uint64_t fallbacks_ = 0;
  std::array<std::uint16_t, kCapacity> fell_{};
  std::size_t fell_count_ = 0;

  // The length of the cycle the parameter lanes hold (0: none yet).
  std::size_t cycle_size_ = 0;

  bool holds(std::span<const Rng::LognormalParams> cycle) const {
    if (cycle.size() != cycle_size_) return false;
    for (std::size_t c = 0; c < cycle.size(); ++c) {
      if (mu_[c] != cycle[c].mu || sigma_[c] != cycle[c].sigma) return false;
    }
    return true;
  }
  void hold(std::span<const Rng::LognormalParams> cycle) {
    for (std::size_t d = 0; d < mu_.size(); ++d) {
      mu_[d] = cycle[d % cycle.size()].mu;
      sigma_[d] = cycle[d % cycle.size()].sigma;
    }
    cycle_size_ = cycle.size();
  }
  // How many draws after the lead and before draw d fell back.
  std::size_t fell_before(std::size_t d) const {
    std::size_t i = 0;
    while (i < fell_count_ && fell_[i] < d) ++i;
    return i;
  }
};

}  // namespace bb
