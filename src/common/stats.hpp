// Streaming statistics and histograms for latency series.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace clara {

/// Streaming accumulator: count/mean/variance via Welford, min/max.
/// O(1) memory; used when percentiles are not needed.
class Accumulator {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    // A zero delta would add a signed zero to mean_ and m2_, which never
    // hold -0.0, so skipping those updates is exact; NaN is not zero.
    if (delta != 0.0) {
      mean_ += delta / static_cast<double>(count_);
      m2_ += delta * (x - mean_);
    }
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const Accumulator& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Reservoir of samples with exact percentiles. For the packet counts we
/// run (≤ a few million) exact storage is affordable and avoids the
/// accuracy caveats of sketches.
class Series {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  /// Linear interpolation between closest ranks. q is clamped to [0,1]
  /// (q=0 -> min, q=1 -> max); a single sample answers every quantile
  /// with itself; an empty series answers 0.0.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width linear histogram used for latency distribution displays.
/// A degenerate range (hi <= lo) or zero bucket count collapses to a
/// single unit-width bucket rather than dividing by zero.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  /// NaN samples count toward total() and underflow (they belong to no
  /// bucket but must not corrupt the index computation).
  void add(double x);
  /// Merges another histogram with the identical layout (same lo/hi and
  /// bucket count); returns false (and changes nothing) on a layout
  /// mismatch.
  bool merge(const Histogram& other);
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// ASCII bar rendering, one line per non-empty bucket.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_, bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Least-squares fit y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys);

/// Knee detection on a latency-vs-load curve using the half-latency rule
/// (N. Patel, "Half-latency rule for finding the knee of the latency
/// curve", PER 2014 — cited by the paper for parameter extraction): the
/// knee is the point where latency first exceeds twice the base latency.
/// Returns the index of the knee, or xs.size() if the curve never bends.
std::size_t find_knee(const std::vector<double>& latencies);

}  // namespace clara
