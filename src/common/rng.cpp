#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace clara {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four words via splitmix64 as recommended by the xoshiro
  // authors; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // defend against accumulated rounding

  // K is a power of two, so each edge k/K and each u*K is exact: a u in
  // slice j = floor(u*K) has j/K <= u < (j+1)/K, so its rank lies in
  // [guide_[j], guide_[j+1]] and no rounding can put it outside.
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  constexpr std::size_t kMaxSlices = std::size_t{1} << 20;
  const std::size_t slices = std::min(4 * std::bit_ceil(n), kMaxSlices);
  slices_ = static_cast<double>(slices);
  slice_shift_ = 53 - std::countr_zero(slices);
  guide_.resize(slices + 1);
  std::uint32_t rank = 0;
  for (std::size_t k = 0; k <= slices; ++k) {
    const double edge = static_cast<double>(k) / slices_;
    while (cdf_[rank] < edge) ++rank;  // cdf_.back() == 1.0 bounds the walk
    guide_[k] = rank;
  }
}

double ZipfSampler::pmf(std::size_t rank) const {
  assert(rank < cdf_.size());
  const double hi = cdf_[rank];
  const double lo = rank == 0 ? 0.0 : cdf_[rank - 1];
  return hi - lo;
}

}  // namespace clara
