// Deterministic pseudo-random number generation for workload synthesis.
//
// We use xoshiro256** rather than std::mt19937 because traces with tens of
// millions of packets are generated in inner loops, and because the state
// is small enough to embed one generator per stream without care.
// Determinism across platforms is required so that benchmarks and tests
// reproduce bit-identically.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
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
  double exponential(double mean) {
    assert(mean > 0.0);
    // Inverse CDF; guard the log argument away from zero.
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

/// Uniform integers in [lo, hi], drawn exactly as Rng::uniform(lo, hi)
/// draws them: the same rejection threshold, the same remainder, so the
/// same values from the same stream. Both are worked out once instead of
/// once per draw: the threshold by one division here, and each remainder
/// by Lemire's direct computation from a 128-bit reciprocal (Lemire,
/// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019), exact
/// for every 64-bit draw and bound. A draw divides nothing.
class UniformInt {
 public:
  UniformInt(std::uint64_t lo, std::uint64_t hi)
      : lo_(lo), bound_(hi - lo + 1), threshold_(-bound_ % bound_), reciprocal_(~Wide{0} / bound_ + 1) {
    assert(lo <= hi && bound_ > 0);
  }

  /// One draw from `gen`, an Rng or anything with its next_u64().
  template <class Gen>
  std::uint64_t operator()(Gen& gen) const {
    for (;;) {
      const std::uint64_t r = gen.next_u64();
      if (r >= threshold_) return lo_ + remainder(r);
    }
  }

 private:
  using Wide = unsigned __int128;

  /// r % bound_: the top 64 bits of (reciprocal_ * r mod 2^128) * bound_.
  /// With reciprocal_ = ceil(2^128 / bound_) this is exact for r, bound_ <
  /// 2^64 (the paper's Theorem 1 with F = 128, N = 64); bound_ = 1 wraps
  /// reciprocal_ to 0, which yields the right remainder, 0.
  [[nodiscard]] std::uint64_t remainder(std::uint64_t r) const {
    const Wide fraction = reciprocal_ * r;
    const Wide high = static_cast<Wide>(static_cast<std::uint64_t>(fraction >> 64)) * bound_;
    const Wide low = (static_cast<Wide>(static_cast<std::uint64_t>(fraction)) * bound_) >> 64;
    return static_cast<std::uint64_t>((high + low) >> 64);
  }

  std::uint64_t lo_;
  std::uint64_t bound_;
  std::uint64_t threshold_;
  Wide reciprocal_;
};

/// Zipf-distributed sampler over ranks {0, 1, ..., n-1} with exponent
/// `alpha`. Rank 0 is the most popular. A draw is an exact inverse-CDF
/// search: the first rank whose cumulative mass is >= u, for u uniform in
/// [0, 1). A guide table (Chen & Asau's indexed search) holds, for each
/// of K = 4 bit_ceil(n) (at most 2^20) equal slices of [0, 1], the first
/// rank reaching the slice's lower edge, so a draw searches only its own
/// slice: O(1) expected, O(log n) at worst, and the same rank a binary
/// search over the whole table returns. Four slices per rank leave most
/// slices at most one rank boundary, which one branch-free step crosses.
///
/// Flow popularity in datacenter traces is famously heavy-tailed; the
/// workload generator uses this to decide which flow each packet belongs
/// to, which in turn controls the working-set behaviour that the paper
/// calls out ("flow distributions ... cause different memory access
/// patterns and cache behaviors").
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  /// rank(rng.next_double()). The draw's 53 bits are kept as an integer
  /// too: with K = 2^k, its slice floor(u * K) is their top k bits.
  std::size_t sample(Rng& rng) const {
    const std::uint64_t bits = rng.next_u64() >> 11;
    return search(static_cast<double>(bits) * 0x1.0p-53, bits >> slice_shift_);
  }

  /// The rank a draw of `u` in [0, 1) selects.
  [[nodiscard]] std::size_t rank(double u) const {
    assert(0.0 <= u && u < 1.0);
    // K is a power of two, so u * K is exact: a u in slice j has
    // j/K <= u < (j+1)/K, and its rank lies in [guide_[j], guide_[j+1]].
    return search(u, static_cast<std::size_t>(u * slices_));
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  /// K, the guide table's slice count.
  [[nodiscard]] std::size_t slices() const { return guide_.size() - 1; }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Probability mass of the given rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  /// The first rank in `slice` whose cumulative mass is >= u.
  [[nodiscard]] std::size_t search(double u, std::size_t slice) const {
    std::size_t r = guide_[slice];
    r += cdf_[r] < u ? 1 : 0;  // cdf_.back() == 1.0 > u stops r at the last rank
    if (cdf_[r] < u) [[unlikely]] {
      r = static_cast<std::size_t>(
          std::lower_bound(cdf_.data() + r + 1, cdf_.data() + guide_[slice + 1], u) - cdf_.data());
    }
    return r;
  }

  std::vector<double> cdf_;
  /// guide_[k]: the first rank whose cdf_ is >= k / (guide_.size() - 1).
  std::vector<std::uint32_t> guide_;
  double slices_ = 0.0;  // K, as rank() multiplies by it
  int slice_shift_ = 0;  // 53 - log2(K), as sample() shifts by it
  double alpha_;
};

}  // namespace clara
