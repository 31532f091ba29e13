#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace bb {

std::string Summary::str() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.2f median=%.2f sd=%.2f min=%.2f max=%.2f", count,
                mean, median, stddev, min, max);
  return buf;
}

Summary Samples::summarize() const {
  Summary s;
  s.count = values_ns_.size();
  if (values_ns_.empty()) return s;

  std::vector<double> sorted = values_ns_;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();

  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(s.count);

  double ss = 0.0;
  for (double v : sorted) ss += (v - s.mean) * (v - s.mean);
  s.stddev = s.count > 1 ? std::sqrt(ss / static_cast<double>(s.count - 1)) : 0.0;

  auto quant = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 >= sorted.size()) return sorted.back();
    return sorted[i] * (1.0 - frac) + sorted[i + 1] * frac;
  };
  s.median = quant(0.5);
  s.p95 = quant(0.95);
  s.p99 = quant(0.99);
  return s;
}

double Samples::quantile(double q) const {
  BB_ASSERT(!values_ns_.empty());
  std::vector<double> sorted = values_ns_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= sorted.size()) return sorted.back();
  return sorted[i] * (1.0 - frac) + sorted[i + 1] * frac;
}

Histogram::Histogram(double lo_ns, double hi_ns, std::size_t bins)
    : lo_(lo_ns), hi_(hi_ns), counts_(bins, 0) {
  BB_ASSERT(hi_ns > lo_ns && bins > 0);
  width_ = (hi_ - lo_) / static_cast<double>(bins);
}

void Histogram::add_ns(double v) {
  std::size_t bin;
  if (v < lo_) {
    bin = 0;
  } else if (v >= hi_) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>((v - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

void Histogram::add_all(const Samples& s) {
  for (double v : s.values_ns()) add_ns(v);
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) /
         (static_cast<double>(total_) * width_);
}

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  if (peak == 0) return "(empty histogram)\n";

  std::string out;
  char line[256];
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) *
        static_cast<double>(width));
    std::snprintf(line, sizeof(line), "%8.1f-%8.1f ns |%-*s| %zu\n",
                  bin_lo(b), bin_hi(b), static_cast<int>(width),
                  std::string(bar, '#').c_str(), counts_[b]);
    out += line;
  }
  return out;
}

}  // namespace bb
