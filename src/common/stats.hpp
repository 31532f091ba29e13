#pragma once
// Sample statistics used throughout the measurement methodology.
//
// The paper reports means of >=100 samples per component, and for the
// injection-overhead distribution (Fig. 7) reports mean / median / min /
// max / standard deviation plus a probability-density plot. `Samples`
// collects raw values; `Summary` freezes the descriptive statistics;
// `Histogram` bins a sample set for rendering.

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace bb {

/// Descriptive statistics of a sample set (all values in nanoseconds).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  std::string str() const;
};

/// Collects raw duration samples.
class Samples {
 public:
  void add(TimePs v) { values_ns_.push_back(v.to_ns()); }
  void add_ns(double ns) { values_ns_.push_back(ns); }
  /// Appends another sample set (profile aggregation across bb::exec
  /// jobs). Order: this set's samples, then `o`'s, so merging in grid
  /// order is deterministic.
  void merge(const Samples& o) {
    values_ns_.insert(values_ns_.end(), o.values_ns_.begin(),
                      o.values_ns_.end());
  }
  void clear() { values_ns_.clear(); }
  std::size_t size() const { return values_ns_.size(); }
  bool empty() const { return values_ns_.empty(); }
  const std::vector<double>& values_ns() const { return values_ns_; }

  Summary summarize() const;
  /// Interpolated quantile, q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> values_ns_;
};

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bin so heavy tails remain visible as mass in the last bin.
class Histogram {
 public:
  Histogram(double lo_ns, double hi_ns, std::size_t bins);

  void add_ns(double v);
  void add(TimePs v) { add_ns(v.to_ns()); }
  void add_all(const Samples& s);

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_[bin]; }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  /// Probability density within the bin (fraction / bin width).
  double density(std::size_t bin) const;

  /// Multi-line ASCII rendering (the Fig. 7 substitute in bench output).
  std::string render(std::size_t width = 60) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace bb
