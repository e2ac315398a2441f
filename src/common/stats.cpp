#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace clara {

double Accumulator::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Series::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Series::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double v : samples_) s += v;
  return s / static_cast<double>(samples_.size());
}

double Series::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  ensure_sorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Series::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double Series::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

Histogram::Histogram(double lo, double hi, std::size_t buckets) : lo_(lo) {
  if (buckets == 0) buckets = 1;
  if (!(hi > lo)) hi = lo + 1.0;  // degenerate range -> one unit bucket
  hi_ = hi;
  bucket_width_ = (hi - lo) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
}

void Histogram::add(double x) {
  ++total_;
  if (std::isnan(x)) {
    ++underflow_;
  } else if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / bucket_width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // rounding guard
    ++counts_[idx];
  }
}

bool Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  return true;
}

double Histogram::bucket_lo(std::size_t i) const { return lo_ + bucket_width_ * static_cast<double>(i); }

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = static_cast<std::size_t>(static_cast<double>(counts_[i]) / static_cast<double>(peak) *
                                              static_cast<double>(width));
    os << "[" << bucket_lo(i) << ", " << bucket_lo(i + 1) << ") " << std::string(std::max<std::size_t>(bar, 1), '#')
       << " " << counts_[i] << "\n";
  }
  return os.str();
}

LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  LinearFit fit;
  const auto n = static_cast<double>(xs.size());
  if (xs.size() < 2) {
    fit.intercept = ys.empty() ? 0.0 : ys[0];
    return fit;
  }
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - (fit.intercept + fit.slope * xs[i]);
    ss_res += e * e;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::size_t find_knee(const std::vector<double>& latencies) {
  if (latencies.empty()) return 0;
  const double base = latencies.front();
  for (std::size_t i = 1; i < latencies.size(); ++i) {
    if (latencies[i] > 2.0 * base) return i;
  }
  return latencies.size();
}

}  // namespace clara
