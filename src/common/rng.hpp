// Deterministic pseudo-random number generation for workload synthesis.
//
// We use xoshiro256** rather than std::mt19937 because traces with tens of
// millions of packets are generated in inner loops, and because the state
// is small enough to embed one generator per stream without care.
// Determinism across platforms is required so that benchmarks and tests
// reproduce bit-identically.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace clara {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed here).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
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

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire-style rejection: retry while in the biased zone.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Exponentially distributed value with the given mean (inter-arrival
  /// times for Poisson packet arrivals).
  double exponential(double mean);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

/// Zipf-distributed sampler over ranks {0, 1, ..., n-1} with exponent
/// `alpha`. Rank 0 is the most popular. A draw is an exact inverse-CDF
/// search: the first rank whose cumulative mass is >= u, for u uniform in
/// [0, 1). A guide table (Chen & Asau's indexed search) holds, for each
/// of K = bit_ceil(n) (at most 2^20) equal slices of [0, 1], the first
/// rank reaching the slice's lower edge, so a draw searches only its own
/// slice: O(1) expected, O(log n) at worst, and the same rank a binary
/// search over the whole table returns.
///
/// Flow popularity in datacenter traces is famously heavy-tailed; the
/// workload generator uses this to decide which flow each packet belongs
/// to, which in turn controls the working-set behaviour that the paper
/// calls out ("flow distributions ... cause different memory access
/// patterns and cache behaviors").
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  std::size_t sample(Rng& rng) const { return rank(rng.next_double()); }

  /// The rank a draw of `u` in [0, 1) selects.
  [[nodiscard]] std::size_t rank(double u) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Probability mass of the given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
  /// guide_[k]: the first rank whose cdf_ is >= k / (guide_.size() - 1).
  std::vector<std::uint32_t> guide_;
  double alpha_;
};

}  // namespace clara
