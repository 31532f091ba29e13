#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/lognormal_block.hpp"

namespace bb {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng a(7);
  Rng child = a.fork();
  // The child stream must not replay the parent stream.
  Rng a2(7);
  (void)a2.next_u64();  // parent consumed one value to fork
  EXPECT_NE(child.next_u64(), a2.next_u64());
}

TEST(Rng, Uniform01InRange) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng r(9);
  int counts[7] = {};
  for (int i = 0; i < 70000; ++i) counts[r.uniform_u64(7)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, ss = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    ss += v * v;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMatchesRequestedMoments) {
  Rng r(13);
  // Fig. 7 shape parameters: mean 282, sd 58.
  double sum = 0, ss = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double v = r.lognormal_by_moments(282.0, 58.0);
    ASSERT_GT(v, 0.0);
    sum += v;
    ss += v * v;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(ss / n - mean * mean);
  EXPECT_NEAR(mean, 282.0, 1.5);
  EXPECT_NEAR(sd, 58.0, 1.5);
}

TEST(Rng, LognormalFromParamsIsBitwiseLognormalByMoments) {
  // Batched replay derives the parameters once and draws many samples;
  // the stream must be the one the per-draw form (and its original
  // closed-form expression) yields.
  for (const auto& [m, sd] : {std::pair{18.0, 2.7}, std::pair{282.0, 58.0},
                             std::pair{0.5, 1.5}}) {
    Rng a(23), b(23), c(23);
    const Rng::LognormalParams p = Rng::lognormal_params(m, sd);
    const double sigma2 = std::log1p((sd / m) * (sd / m));
    const double mu = std::log(m) - 0.5 * sigma2;
    for (int i = 0; i < 10000; ++i) {
      const double batched = a.lognormal(p);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched),
                std::bit_cast<std::uint64_t>(b.lognormal_by_moments(m, sd)))
          << "draw " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched),
                std::bit_cast<std::uint64_t>(
                    std::exp(mu + std::sqrt(sigma2) * c.normal())))
          << "draw " << i;
    }
  }
}

TEST(Rng, SecondVariateIsExactAfterAFastDraw) {
  // lognormal_ps leaves the pair's second variate approximated; normal()
  // must still return its exact value, and the streams stay in step.
  const Rng::LognormalParams p = Rng::lognormal_params(18.0, 2.7);
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng fast(seed), ref(seed);
    ASSERT_EQ(fast.lognormal_ps(p), TimePs::from_ns(ref.lognormal(p)))
        << "seed " << seed;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fast.normal()),
              std::bit_cast<std::uint64_t>(ref.normal()))
        << "seed " << seed;
    ASSERT_EQ(fast.next_u64(), ref.next_u64()) << "seed " << seed;
  }
}

TEST(Rng, BlockDrawIsSequentialLognormalPs) {
  // A block of n draws equals n lognormal_ps calls: values,
  // exact_fallbacks() and the stream after, whatever the spare or the
  // look-ahead's cursor on entry. rewind(k) leaves the stream where k
  // calls would. (Rng.LaneKernelBuildsAgree checks the baseline build of
  // the kernels against the CPU's pick.)
  // 10.73 and 18 ns are the idle pass; 2400 ns falls back about once in
  // 1000 draws, 1e5 ns about once in 20, so now and then both draws of
  // a pair fall back.
  const Rng::LognormalParams idle_ucp = Rng::lognormal_params(10.73, 1.61);
  const Rng::LognormalParams idle_llp = Rng::lognormal_params(18.0, 2.7);
  const Rng::LognormalParams check = Rng::lognormal_params(1e5, 5e4);
  const std::vector<std::vector<Rng::LognormalParams>> cycles = {
      {idle_ucp, idle_llp},
      {check},
      {idle_ucp, idle_llp, Rng::lognormal_params(2400.0, 480.0),
       Rng::lognormal_params(0.5, 1.5), check}};
  enum class Entry { kNoSpare, kLazySpare, kExactSpare };
  const auto enter = [&](Rng& r, Entry e) {
    if (e == Entry::kLazySpare) (void)r.lognormal_ps(idle_llp);
    if (e == Entry::kExactSpare) (void)r.normal();
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // The same stream: the held variate, the approximated one behind a
  // lazy spare (through fallbacks of the next draws) and the raw words.
  const auto same_stream = [&](const Rng& a, const Rng& b) {
    EXPECT_EQ(a.exact_fallbacks(), b.exact_fallbacks());
    Rng a1 = a, b1 = b;
    EXPECT_EQ(bits(a1.normal()), bits(b1.normal()));
    EXPECT_EQ(a1.next_u64(), b1.next_u64());
    Rng a2 = a, b2 = b;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(a2.lognormal_ps(check), b2.lognormal_ps(check));
    }
    EXPECT_EQ(a2.exact_fallbacks(), b2.exact_fallbacks());
    EXPECT_EQ(a2.next_u64(), b2.next_u64());
  };
#ifdef NDEBUG
  constexpr std::size_t kStep = 1;
#else
  constexpr std::size_t kStep = 17;
#endif
  std::uint64_t block_fallbacks = 0;
  LognormalBlock block;
  std::uint64_t seed = 1;
  for (const std::span<const Rng::LognormalParams> cycle : cycles) {
    const std::size_t len = cycle.size();
    for (const Entry entry :
         {Entry::kNoSpare, Entry::kLazySpare, Entry::kExactSpare}) {
      // Draws before the block move the look-ahead's cursor through every
      // position, so some blocks refill it and some do not.
      for (const std::size_t ahead :
           {std::size_t{0}, std::size_t{2}, std::size_t{17}, std::size_t{61},
            std::size_t{100}, std::size_t{127}}) {
        for (std::size_t n = 0; n <= LognormalBlock::kCapacity; n += kStep) {
          SCOPED_TRACE(testing::Message()
                       << "cycle " << len << " entry "
                       << static_cast<int>(entry) << " ahead " << ahead
                       << " n " << n);
          ++seed;
          Rng fast(seed), ref(seed), exact(seed);
          const auto enter_ahead = [&](Rng& r) {
            for (std::size_t i = 0; i < ahead; ++i) (void)r.lognormal_ps(check);
            enter(r, entry);
          };
          enter_ahead(fast);
          enter_ahead(ref);
          enter_ahead(exact);
          const std::uint64_t before = fast.exact_fallbacks();
          fast.lognormal_ps_block(cycle, n, block);
          block_fallbacks += fast.exact_fallbacks() - before;
          ASSERT_EQ(block.values().size(), n);
          for (std::size_t i = 0; i < n; ++i) {
            const Rng::LognormalParams& p = cycle[i % len];
            ASSERT_EQ(block.values()[i], ref.lognormal_ps(p)) << "draw " << i;
            ASSERT_EQ(block.values()[i], TimePs::from_ns(exact.lognormal(p)))
                << "draw " << i;
          }
          same_stream(fast, ref);
          for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2,
                                      n / 2 + 1, n - 1}) {
            if (k > n) continue;
            // A copy holds no look-ahead to rewind: draw the block again.
            Rng rewound(seed), ref_k(seed);
            enter_ahead(rewound);
            rewound.lognormal_ps_block(cycle, n, block);
            rewound.rewind(block, k);
            enter_ahead(ref_k);
            for (std::size_t i = 0; i < k; ++i) {
              (void)ref_k.lognormal_ps(cycle[i % len]);
            }
            SCOPED_TRACE(testing::Message() << "rewound to " << k);
            same_stream(rewound, ref_k);
          }
        }
      }
    }
  }
  EXPECT_GT(block_fallbacks, 0u);
}

TEST(Rng, SecondDrawAfterAFallbackBracketsTheExactVariate) {
  // After a pair's first lognormal_ps draw falls back, the pair's second
  // draw checks its bracket on the exact variate, as it would on an exact
  // spare, not on the approximation. The two differ by about 1e-15, so
  // the second draw's parameters are searched until the bracket's edge
  // falls between them; then exact_fallbacks() tells them apart, through
  // single draws, a block and a copy.
  const Rng::LognormalParams first{-800.0, 0.0};  // |y| >= 700: exact
  const auto closed = [](const Rng::LognormalParams& p, double z) {
    const double v = detail::approx_exp(p.mu + p.sigma * z);
    return TimePs::from_ns(v * detail::kBracketLo) ==
           TimePs::from_ns(v * detail::kBracketHi);
  };
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 2000 && found < 20; ++seed) {
    // A fresh stream's first pair is made of its first two words.
    Rng words(seed);
    const std::uint64_t w1 = words.next_u64();
    const std::uint64_t w2 = words.next_u64();
    ASSERT_NE(w1 >> 11, 0u);
    std::array<double, 2> approx{};
    detail::fill_normal_lanes(&w1, &w2, approx.data(), 1);
    Rng twin(seed);
    (void)twin.normal();
    const double exact = twin.normal();
    if (approx[1] == exact) continue;
    // v = exp(mu + z) near 1 ns, where the bracket's upper end crosses
    // from 999 ps to 1000 ps; mu steps by its ulp across that crossing.
    const double z_mid = 0.5 * (approx[1] + exact);
    Rng::LognormalParams second{
        std::log(0.9995 / detail::kBracketHi) - z_mid, 1.0};
    for (int i = 0; i < 512; ++i) {
      second.mu = std::nextafter(second.mu, -1e9);
    }
    for (int i = 0; i < 1024; ++i) {
      if (closed(second, exact) != closed(second, approx[1])) break;
      second.mu = std::nextafter(second.mu, 1e9);
    }
    if (closed(second, exact) == closed(second, approx[1])) continue;
    ++found;
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::uint64_t want = closed(second, exact) ? 1 : 2;
    Rng single(seed);
    (void)single.lognormal_ps(first);
    (void)single.lognormal_ps(second);
    EXPECT_EQ(single.exact_fallbacks(), want);
    Rng blocked(seed);
    const Rng::LognormalParams cycle[] = {first, second};
    LognormalBlock block;
    blocked.lognormal_ps_block(cycle, 2, block);
    EXPECT_EQ(blocked.exact_fallbacks(), want);
    Rng settled(seed);
    (void)settled.lognormal_ps(first);
    Rng copy = settled;
    (void)copy.lognormal_ps(second);
    EXPECT_EQ(copy.exact_fallbacks(), want);
  }
  EXPECT_GE(found, 10);
}

TEST(Rng, LaneKernelBuildsAgree) {
  // The CPU's pick of the lane kernels (the x86-64-v4 clone where the CPU
  // has AVX-512) computes the baseline build's bits: variates from words
  // as the look-ahead draws them plus the edges of the log's fold and of
  // the quadrants, and draws near exp's limits.
  constexpr std::size_t kPairs = detail::NormalLookahead::kPairs;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // The word whose unit() is k 2^-53.
  const auto word = [](std::uint64_t k) { return k << 11; };
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 52;  // 0.5
  const std::uint64_t fold = static_cast<std::uint64_t>(
      0x1.6a09e667f3bcdp-1 * 0x1.0p53);  // sqrt(1/2)
  const std::uint64_t edges[] = {1,        2,         fold - 1, fold,
                                 fold + 1, kHalf,     kHalf / 2, 3 * kHalf / 2,
                                 kHalf / 4, (kHalf << 1) - 1, 0};
  Rng source(77);
  for (int round = 0; round < 200; ++round) {
    std::array<std::uint64_t, kPairs> w1{}, w2{};
    for (std::size_t j = 0; j < kPairs; ++j) {
      w1[j] = source.next_u64() | word(1);
      w2[j] = source.next_u64();
    }
    if (round == 0) {
      for (std::size_t j = 0; j < std::size(edges); ++j) {
        w1[j] = word(edges[j] > 0 ? edges[j] : 1);
        w2[j] = word(edges[j]);
      }
    }
    const std::size_t pairs = 1 + static_cast<std::size_t>(round) % kPairs;
    std::array<double, 2 * kPairs> z_pick{}, z_base{};
    detail::fill_normal_lanes(w1.data(), w2.data(), z_pick.data(), pairs);
    detail::fill_normal_lanes_baseline(w1.data(), w2.data(), z_base.data(),
                                       pairs);
    for (std::size_t d = 0; d < 2 * pairs; ++d) {
      ASSERT_EQ(bits(z_pick[d]), bits(z_base[d])) << "round " << round;
    }
    std::array<double, 2 * kPairs> mu{}, sigma{};
    for (std::size_t d = 0; d < 2 * pairs; ++d) {
      // Means from 0.5 ns to 1e5 ns, a few near exp's limit of 700.
      const double mean = 0.5 * std::pow(2e5, source.uniform01());
      const Rng::LognormalParams p =
          Rng::lognormal_params(mean, mean * 4.0 * source.uniform01() + 1e-3);
      mu[d] = source.bernoulli(0.05) ? 699.0 * (source.bernoulli(0.5) ? 1 : -1)
                                     : p.mu;
      sigma[d] = p.sigma;
    }
    std::array<TimePs, 2 * kPairs> ps_pick{}, ps_base{};
    std::array<std::int64_t, 2 * kPairs> open_pick{}, open_base{};
    const std::int64_t opened_pick = detail::fill_lognormal_lanes(
        mu.data(), sigma.data(), z_pick.data(), ps_pick.data(),
        open_pick.data(), 2 * pairs);
    const std::int64_t opened_base = detail::fill_lognormal_lanes_baseline(
        mu.data(), sigma.data(), z_pick.data(), ps_base.data(),
        open_base.data(), 2 * pairs);
    ASSERT_EQ(opened_pick, opened_base) << "round " << round;
    for (std::size_t d = 0; d < 2 * pairs; ++d) {
      ASSERT_EQ(open_pick[d], open_base[d]) << "round " << round;
      ASSERT_EQ(ps_pick[d], ps_base[d]) << "round " << round;
    }
  }
}

TEST(Rng, LookaheadReadsAsSequentialStream) {
  // lognormal_ps at seeded random points, interleaved with every other
  // kind of draw, with blocks and rewinds and with copies, reads as one
  // stream: each value equals a twin's that draws every variate exactly,
  // and exact_fallbacks() equals a third stream's that is settled before
  // each lognormal_ps, so its look-ahead never runs past one draw.
  const Rng::LognormalParams params[] = {
      Rng::lognormal_params(10.73, 1.61), Rng::lognormal_params(18.0, 2.7),
      Rng::lognormal_params(2400.0, 480.0), Rng::lognormal_params(1e5, 5e4),
      Rng::lognormal_params(0.5, 1.5)};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto settle = [](Rng& r) {
    const Rng copy = r;
    r = copy;
  };
#ifdef NDEBUG
  constexpr int kSteps = 200000;
#else
  constexpr int kSteps = 20000;
#endif
  Rng fast(5), exact(5), single(5);
  Rng script(99);  // picks the operations, apart from the streams
  LognormalBlock block;
  std::uint64_t fallbacks = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const std::uint64_t op = script.uniform_u64(20);
    const Rng::LognormalParams& p = params[script.uniform_u64(5)];
    if (op < 9) {
      settle(single);
      const TimePs want = TimePs::from_ns(exact.lognormal(p));
      ASSERT_EQ(fast.lognormal_ps(p), want);
      ASSERT_EQ(single.lognormal_ps(p), want);
    } else if (op == 9) {
      const std::uint64_t v = exact.next_u64();
      ASSERT_EQ(fast.next_u64(), v);
      ASSERT_EQ(single.next_u64(), v);
    } else if (op == 10) {
      const double v = exact.uniform(2.0, 3.0);
      ASSERT_EQ(bits(fast.uniform(2.0, 3.0)), bits(v));
      ASSERT_EQ(bits(single.uniform(2.0, 3.0)), bits(v));
    } else if (op == 11) {
      const std::uint64_t v = exact.uniform_u64(1000);
      ASSERT_EQ(fast.uniform_u64(1000), v);
      ASSERT_EQ(single.uniform_u64(1000), v);
    } else if (op == 12) {
      const double v = exact.normal(1.0, 2.0);
      ASSERT_EQ(bits(fast.normal(1.0, 2.0)), bits(v));
      ASSERT_EQ(bits(single.normal(1.0, 2.0)), bits(v));
    } else if (op == 13) {
      const double v = exact.lognormal(p);
      ASSERT_EQ(bits(fast.lognormal(p)), bits(v));
      ASSERT_EQ(bits(single.lognormal(p)), bits(v));
    } else if (op == 14) {
      const double v = exact.exponential(5.0);
      ASSERT_EQ(bits(fast.exponential(5.0)), bits(v));
      ASSERT_EQ(bits(single.exponential(5.0)), bits(v));
    } else if (op == 15) {
      const bool v = exact.bernoulli(0.5);
      ASSERT_EQ(fast.bernoulli(0.5), v);
      ASSERT_EQ(single.bernoulli(0.5), v);
    } else if (op == 16) {
      const std::uint64_t v = exact.fork().next_u64();
      ASSERT_EQ(fast.fork().next_u64(), v);
      ASSERT_EQ(single.fork().next_u64(), v);
    } else if (op == 17) {
      // A copy carries on as the original does; the original is kept.
      Rng copy = fast;
      Rng twin = exact;
      ASSERT_EQ(copy.exact_fallbacks(), fast.exact_fallbacks());
      for (int i = 0; i < 3; ++i) {
        const Rng::LognormalParams& q = params[static_cast<std::size_t>(i)];
        ASSERT_EQ(copy.lognormal_ps(q), TimePs::from_ns(twin.lognormal(q)));
      }
      if (script.bernoulli(0.5)) {
        fast = copy;
        exact = twin;
        single = fast;
      }
    } else {
      // A block of up to kCapacity draws over a cycle of one to three
      // parameters, rewound to a random draw inside it.
      const std::size_t len = 1 + script.uniform_u64(3);
      const Rng::LognormalParams cycle[] = {p, params[1], params[2]};
      const std::size_t n = script.uniform_u64(LognormalBlock::kCapacity + 1);
      const std::size_t k = op == 18 ? n : script.uniform_u64(n + 1);
      fast.lognormal_ps_block({cycle, len}, n, block);
      if (k < n) fast.rewind(block, k);
      for (std::size_t i = 0; i < n; ++i) {
        // Past k, a copy of the twin checks the values rewound over.
        const Rng::LognormalParams& q = cycle[i % len];
        if (i == k) {
          Rng twin = exact;
          for (std::size_t j = k; j < n; ++j) {
            ASSERT_EQ(block.values()[j],
                      TimePs::from_ns(twin.lognormal(cycle[j % len])))
                << "draw " << j << " of " << n << ", rewound to " << k;
          }
          break;
        }
        settle(single);
        const TimePs want = TimePs::from_ns(exact.lognormal(q));
        ASSERT_EQ(block.values()[i], want) << "draw " << i << " of " << n;
        ASSERT_EQ(single.lognormal_ps(q), want);
      }
    }
    ASSERT_EQ(fast.exact_fallbacks(), single.exact_fallbacks());
    fallbacks = fast.exact_fallbacks();
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(Rng, LognormalMedianBelowMean) {
  // Positively skewed: median < mean, as the paper observes (266 < 282).
  Rng r(17);
  std::vector<double> v;
  for (int i = 0; i < 50001; ++i) v.push_back(r.lognormal_by_moments(282, 58));
  std::sort(v.begin(), v.end());
  EXPECT_LT(v[v.size() / 2], 282.0);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, BernoulliProbability) {
  Rng r(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits, 30000, 600);
}

TEST(Rng, DeriveSeedIsPure) {
  // No hidden state: the same (parent, label) always yields the same
  // child, regardless of how often or from where it is computed.
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  static_assert(derive_seed(42, 7) == derive_seed(42, 7));
  const std::uint64_t a = derive_seed(1, 2);
  Rng burn(1);
  for (int i = 0; i < 100; ++i) (void)burn.next_u64();
  EXPECT_EQ(derive_seed(1, 2), a);
}

TEST(Rng, DeriveSeedHasNoCollisionsOverDenseGrids) {
  // The exact shape bb::exec produces: small sequential labels under
  // many parent seeds (sweep seeds are themselves often sequential).
  std::set<std::uint64_t> seen;
  for (std::uint64_t parent = 0; parent < 512; ++parent) {
    for (std::uint64_t label = 0; label < 512; ++label) {
      seen.insert(derive_seed(parent, label));
    }
  }
  EXPECT_EQ(seen.size(), 512u * 512u);
}

TEST(Rng, DeriveSeedDecorrelatesNeighbours) {
  // Adjacent labels must not produce correlated streams: compare the
  // first draws of sibling children bit-wise.
  int close = 0;
  for (std::uint64_t label = 0; label < 256; ++label) {
    Rng a(derive_seed(99, label));
    Rng b(derive_seed(99, label + 1));
    const int distance = __builtin_popcountll(a.next_u64() ^ b.next_u64());
    // 64 fair coin flips; < 16 matching bits is a 6-sigma outlier.
    if (distance < 16 || distance > 48) ++close;
  }
  EXPECT_LE(close, 2);
}

TEST(Rng, PureForkMatchesDeriveSeedAndLeavesParentUntouched) {
  const Rng parent(7);
  Rng child = parent.fork(3);
  Rng expect(derive_seed(7, 3));
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(child.next_u64(), expect.next_u64());
  }
  // const fork => parent stream position is untouched by construction;
  // verify the parent still replays from the start.
  Rng replay(7);
  Rng parent2 = parent;
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(parent2.next_u64(), replay.next_u64());
  }
}

TEST(Rng, StatefulForkStillConsumesParentState) {
  // The legacy contract (golden-compatible): fork() advances the parent.
  Rng a(7), b(7);
  (void)a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedAccessorReturnsConstructionSeed) {
  Rng r(0xDEADBEEFull);
  (void)r.next_u64();
  EXPECT_EQ(r.seed(), 0xDEADBEEFull);
}

}  // namespace
}  // namespace bb
