#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace bb {
namespace {

using namespace bb::literals;

TEST(Samples, SummaryOfKnownValues) {
  Samples s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add_ns(v);
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.count, 8u);
  EXPECT_DOUBLE_EQ(sum.mean, 5.0);
  EXPECT_DOUBLE_EQ(sum.min, 2.0);
  EXPECT_DOUBLE_EQ(sum.max, 9.0);
  EXPECT_NEAR(sum.stddev, 2.138, 1e-3);  // sample sd
  EXPECT_NEAR(sum.median, 4.5, 1e-9);
}

TEST(Samples, EmptySummaryIsZero) {
  Samples s;
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.count, 0u);
  EXPECT_EQ(sum.mean, 0.0);
}

TEST(Samples, AddTimePsConvertsToNs) {
  Samples s;
  s.add(282.33_ns);
  EXPECT_DOUBLE_EQ(s.values_ns()[0], 282.33);
}

TEST(Samples, QuantileInterpolates) {
  Samples s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add_ns(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 25.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 100.0, 10);
  h.add_ns(5.0);    // bin 0
  h.add_ns(95.0);   // bin 9
  h.add_ns(-50.0);  // clamped to bin 0
  h.add_ns(500.0);  // clamped to bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 20.0);
}

TEST(Histogram, DensityIntegratesToOne) {
  Rng r(31);
  Histogram h(0.0, 600.0, 60);
  for (int i = 0; i < 20000; ++i) h.add_ns(r.normal(282, 58));
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    integral += h.density(b) * (h.bin_hi(b) - h.bin_lo(b));
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 10.0, 2);
  h.add_ns(1.0);
  h.add_ns(6.0);
  h.add_ns(7.0);
  const std::string out = h.render(20);
  EXPECT_NE(out.find("| 1"), std::string::npos);
  EXPECT_NE(out.find("| 2"), std::string::npos);
}

}  // namespace
}  // namespace bb
