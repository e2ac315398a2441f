// Tests for the common substrate: RNG, Zipf sampling, statistics,
// strings, tables, Result, JSON number spelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace clara {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, UniformInclusiveRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

// UniformInt draws what Rng::uniform draws, value for value and draw for
// draw: spans from 1 to 2^64 - 1, rejection-heavy ones (just above 2^63)
// included, keep both streams in step.
TEST(Rng, UniformIntMatchesUniform) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint64_t> spans = {1,          2,          3,          7,          8,
                                            64,         1000,       1437,       8937,       9001,
                                            64512,      65536,      65537,      (1ULL << 31) - 1,
                                            1ULL << 32, (1ULL << 32) + 1,       (1ULL << 53) + 7,
                                            (1ULL << 63) - 1,       1ULL << 63, (1ULL << 63) + 1,
                                            (1ULL << 63) + 12345,   kMax - 1,   kMax};
  std::size_t draws = 0;
  for (const std::uint64_t span : spans) {
    for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{64}, kMax - span + 1}) {
      if (lo > kMax - (span - 1)) continue;
      const UniformInt draw(lo, lo + (span - 1));
      Rng a(span ^ lo), b(span ^ lo);
      for (int i = 0; i < 20'000; ++i, ++draws) {
        ASSERT_EQ(draw(a), b.uniform(lo, lo + (span - 1))) << "span " << span << " lo " << lo << " draw " << i;
      }
      ASSERT_EQ(a.next_u64(), b.next_u64()) << "span " << span << " lo " << lo;
    }
  }
  EXPECT_GE(draws, 1'000'000u);
}

// The remainder is exact at the edges a random stream seldom reaches:
// the rejection threshold, multiples of the span and their neighbours,
// and the largest draw.
TEST(Rng, UniformIntExactAtEdges) {
  struct Script {
    std::vector<std::uint64_t> values;
    std::size_t next = 0;
    std::uint64_t next_u64() { return values.at(next++); }
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint64_t> spans = {3, 1437, 64512, (1ULL << 32) + 1, (1ULL << 63) + 1, kMax - 1};
  for (const std::uint64_t span : spans) {
    const std::uint64_t threshold = (0 - span) % span;
    std::vector<std::uint64_t> edges = {threshold, threshold + 1, kMax, kMax - 1, kMax - span, kMax - span + 1};
    for (std::uint64_t k = 1; k < 4 && span <= kMax / (k + 1); ++k) {
      for (const std::uint64_t d : {span * k - 1, span * k, span * k + 1}) edges.push_back(d);
    }
    const std::uint64_t lo = span - 1 <= kMax - 5 ? 5 : 0;  // lo + span - 1 must not wrap
    for (const std::uint64_t r : edges) {
      if (r < threshold) continue;  // rejected; see below
      Script script{{r}};
      EXPECT_EQ(UniformInt(lo, lo + (span - 1))(script), lo + r % span) << "span " << span << " r " << r;
    }
    if (threshold > 0) {  // a draw below the threshold is rejected, and the next one used
      Script script{{threshold - 1, kMax}};
      EXPECT_EQ(UniformInt(0, span - 1)(script), kMax % span) << "span " << span;
      EXPECT_EQ(script.next, 2u);
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(100, 1.1);
  double total = 0;
  for (std::size_t i = 0; i < z.size(); ++i) total += z.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfSampler z(1000, 1.0);
  for (std::size_t i = 1; i < 10; ++i) EXPECT_GT(z.pmf(0), z.pmf(i));
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(50, 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(z.pmf(i), 1.0 / 50.0, 1e-9);
}

TEST(Zipf, SampleMatchesPmf) {
  Rng rng(3);
  ZipfSampler z(10, 1.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, z.pmf(i), 0.01) << "rank " << i;
  }
}

TEST(Zipf, SingleElement) {
  Rng rng(1);
  ZipfSampler z(1, 1.5);
  EXPECT_EQ(z.sample(rng), 0u);
  EXPECT_NEAR(z.pmf(0), 1.0, 1e-12);
}

// The guide table changes how a rank is found, never which: every draw,
// and every u at a slice edge and one ulp either side, selects the rank
// a binary search over the whole cumulative table selects.
TEST(Zipf, GuideTableMatchesLowerBound) {
  std::size_t draws = 0;
  for (const std::size_t n : {1, 2, 10, 2000, 100000, (1 << 20) + 1}) {
    for (const double alpha : {0.0, 0.5, 1.0, 1.1, 8.0}) {
      // The cumulative table as the sampler built it before the guide table.
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = total;
      }
      for (auto& v : cdf) v /= total;
      cdf.back() = 1.0;
      const auto expected = [&cdf](double u) {
        return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      };

      const ZipfSampler z(n, alpha);
      Rng rng(n * 31 + static_cast<std::size_t>(alpha * 10));
      Rng reference = rng;
      for (int i = 0; i < 40'000; ++i, ++draws) {
        const std::size_t rank = z.sample(rng);
        ASSERT_EQ(rank, expected(reference.next_double())) << "n=" << n << " alpha=" << alpha << " draw " << i;
      }
      const std::size_t slices = z.slices();
      ASSERT_EQ(slices, std::min(4 * std::bit_ceil(n), std::size_t{1} << 20)) << "n=" << n;
      for (std::size_t k = 0; k < slices; ++k) {
        const double edge = static_cast<double>(k) / static_cast<double>(slices);
        for (const double u : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 1.0)}) {
          if (u < 0.0 || u >= 1.0) continue;
          ASSERT_EQ(z.rank(u), expected(u)) << "n=" << n << " alpha=" << alpha << " u=" << u;
        }
      }
    }
  }
  EXPECT_GE(draws, 1'000'000u);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeEqualsCombined) {
  Accumulator a, b, all;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.next_double() * 100.0;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

/// Welford as Accumulator::add was before it skipped zero deltas: every
/// update on every sample.
struct ReferenceWelford {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x) {
    ++count;
    sum += x;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    min = std::min(min, x);
    max = std::max(max, x);
  }
};

/// Equal bits, or both NaN: IEEE leaves a NaN's payload to operand order.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) || (std::isnan(a) && std::isnan(b));
}

// A zero delta leaves the mean and M2 alone, and that must be exactly
// what the full update would have left, sample by sample, including on
// signed zeros, infinities and NaN.
TEST(Accumulator, ZeroDeltaSkipMatchesFullWelfordBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> sequences = {
      {5, 5, 5, 5},
      {0, 0, 0},
      {-0.0, -0.0, 0.0, -0.0},
      {0.0, -0.0, 3, 3, -0.0, 0.0},
      {1, 2, 2, 2, 1e300, 1e300, -1e300, -1e300},
      {0.1, 0.1, 0.30000000000000004, 0.1, 0.1},
      {inf, inf, 1, -inf, -inf},
      {-inf, -inf, 0.0},
      {3, nan, 3, 3, nan},
      {nan, 0.0, -0.0},
  };
  // Seeded draws from a small pool, so repeats (zero deltas) are common.
  const double pool[] = {0.0, -0.0, 1.0, 2.5, 12.0, 12.0, 1e-300, 96.0};
  Rng rng(31);
  std::vector<double> drawn;
  for (int i = 0; i < 2'000; ++i) drawn.push_back(pool[rng.next_below(std::size(pool))]);
  sequences.push_back(drawn);

  for (std::size_t s = 0; s < sequences.size(); ++s) {
    Accumulator acc;
    ReferenceWelford ref;
    for (std::size_t i = 0; i < sequences[s].size(); ++i) {
      acc.add(sequences[s][i]);
      ref.add(sequences[s][i]);
      const double variance = ref.count > 1 ? ref.m2 / static_cast<double>(ref.count - 1) : 0.0;
      const std::string at = strf("sequence %zu sample %zu", s, i);
      EXPECT_EQ(acc.count(), ref.count) << at;
      EXPECT_TRUE(same_bits(acc.sum(), ref.sum)) << at;
      EXPECT_TRUE(same_bits(acc.mean(), ref.mean)) << at << ": " << acc.mean() << " vs " << ref.mean;
      EXPECT_TRUE(same_bits(acc.variance(), variance)) << at << ": " << acc.variance() << " vs " << variance;
      EXPECT_TRUE(same_bits(acc.min(), ref.min)) << at;
      EXPECT_TRUE(same_bits(acc.max(), ref.max)) << at;
    }
  }
}

TEST(Series, Percentiles) {
  Series s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.2);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Series, MeanAndEmpty) {
  Series s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  s.add(2.0);
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, RenderNonEmpty) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  h.add(1.5);
  const auto text = h.render(20);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(LinearFitTest, ExactLine) {
  std::vector<double> xs{1, 2, 3, 4}, ys{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFitTest, ConstantData) {
  std::vector<double> xs{1, 2, 3}, ys{4, 4, 4};
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
}

TEST(LinearFitTest, DegenerateInputs) {
  EXPECT_EQ(linear_fit({}, {}).slope, 0.0);
  const auto fit = linear_fit({5.0}, {7.0});
  EXPECT_DOUBLE_EQ(fit.intercept, 7.0);
}

TEST(KneeTest, FindsKnee) {
  // Flat at 100, then doubles past index 4.
  std::vector<double> lat{100, 105, 110, 108, 150, 240, 500};
  EXPECT_EQ(find_knee(lat), 5u);
}

TEST(KneeTest, NoKnee) {
  std::vector<double> lat{100, 110, 120, 130};
  EXPECT_EQ(find_knee(lat), lat.size());
}

TEST(KneeTest, Empty) { EXPECT_EQ(find_knee({}), 0u); }

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("3.5").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  for (const char* non_finite : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e309"}) {
    EXPECT_FALSE(parse_double(non_finite).has_value()) << non_finite;
  }
}

/// json_number's rule spelled with printf: the first of %.15g, %.16g and
/// %.17g that strtod reads back equal.
std::string printf_number(double value) {
  if (!std::isfinite(value)) return "0";
  for (const int precision : {15, 16}) {
    std::string text = strf("%.*g", precision, value);
    if (std::strtod(text.c_str(), nullptr) == value) return text;
  }
  return strf("%.17g", value);
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

double from_bits(std::uint64_t pattern) {
  double out = 0.0;
  std::memcpy(&out, &pattern, sizeof out);
  return out;
}

// Seeded doubles of every kind the wire carries — random bit patterns,
// integers, tenths, powers of ten across the whole range, denormals and
// the extremes — spelled by json_number exactly as printf spells them,
// and read back by the JSON parser to the same bits.
TEST(JsonNumber, SpellsAsPrintfAndReadsBackBitExact) {
  Rng rng(0x4A534F4E);
  std::vector<double> values = {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                DBL_EPSILON, 1.0, -1.0, 0.1, 1e-5, 1e5, 1e15, 1e16, 1e17, 9007199254740993.0};
  for (int k = -320; k <= 308; ++k) values.push_back(std::strtod(strf("1e%d", k).c_str(), nullptr));
  for (int i = 0; i < 100'000; ++i) values.push_back(from_bits(rng.next_u64()));
  for (int i = 0; i < 30'000; ++i) {
    values.push_back(static_cast<double>(rng.next_below(std::uint64_t{1} << 53)));
    values.push_back(-static_cast<double>(rng.next_below(100'000)));
  }
  for (int i = 0; i < 30'000; ++i) values.push_back(static_cast<double>(rng.next_below(10'000'000)) / 10.0);
  for (int i = 0; i < 20'000; ++i) values.push_back(from_bits(rng.next_below(std::uint64_t{1} << 52)));
  for (int i = 0; i < 20'000; ++i) values.push_back(rng.next_double() * std::pow(10.0, rng.uniform(0, 40) - 20.0));
  ASSERT_GE(values.size(), 200'000u);

  std::size_t finite = 0, spelled_wrong = 0, read_wrong = 0;
  for (const double value : values) {
    const std::string text = json_number(value);
    if (text != printf_number(value) && spelled_wrong++ < 5) {
      ADD_FAILURE() << strf("%a", value) << ": json_number " << text << ", printf " << printf_number(value);
    }
    if (!std::isfinite(value)) continue;
    ++finite;
    const auto parsed = Json::parse(text);
    if ((!parsed.ok() || !parsed.value().is_number() || bits(parsed.value().as_double()) != bits(value)) &&
        read_wrong++ < 5) {
      ADD_FAILURE() << strf("%a", value) << ": " << text << " does not read back";
    }
  }
  EXPECT_EQ(spelled_wrong, 0u);
  EXPECT_EQ(read_wrong, 0u);
  EXPECT_GE(finite, 199'000u);

  // No JSON spelling for these; the writer emits 0.
  for (const double special : {std::numeric_limits<double>::quiet_NaN(), -std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(json_number(special), "0");
  }
}

// RFC 8259's number grammar: no leading zeros, no bare or leading dot.
TEST(JsonNumber, RefusesSpellingsOutsideTheRfcGrammar) {
  for (const char* text : {"01", "00.5", "1.", "1.e5", ".5", "-.5"}) {
    for (const std::string& document : {std::string(text), strf(R"({"n":%s})", text)}) {
      const auto parsed = Json::parse(document);
      ASSERT_FALSE(parsed.ok()) << document;
      EXPECT_EQ(parsed.error().code, ErrorCode::kParse) << document;
      EXPECT_NE(parsed.error().message.find("malformed number"), std::string::npos)
          << document << ": " << parsed.error().message;
    }
  }
  const struct {
    const char* text;
    double value;
  } valid[] = {{"0", 0.0}, {"-0", -0.0}, {"0.1", 0.1}, {"1E5", 1e5}, {"1e+2", 100.0}, {"-0.0e-0", -0.0}};
  for (const auto& [text, value] : valid) {
    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error().message;
    EXPECT_EQ(bits(parsed.value().as_double()), bits(value)) << text;
  }
}

// The scanned view's layout: one node per value in document order, a
// container before its members, an object key's end at the end of its
// value, and string text kept as written until it is decoded.
TEST(JsonView, NodesListValuesInDocumentOrder) {
  const std::string text = R"({"a":[1,true,null],"b\u0021":{"c":"x\ny"},"d":-2.5e1})";
  const auto scanned = JsonView::scan(text);
  ASSERT_TRUE(scanned.ok()) << scanned.error().message;
  const JsonView& view = scanned.value();
  using K = Json::Kind;
  const std::vector<std::tuple<K, std::string_view, std::uint32_t>> expected = {
      {K::kObject, "{", 12}, {K::kString, "a", 6},       {K::kArray, "[", 6},          {K::kNumber, "1", 4},
      {K::kBool, "true", 5}, {K::kNull, "null", 6},      {K::kString, "b\\u0021", 10}, {K::kObject, "{", 10},
      {K::kString, "c", 10}, {K::kString, "x\\ny", 10}, {K::kString, "d", 12},         {K::kNumber, "-2.5e1", 12},
  };
  for (std::uint32_t i = 0; i < expected.size(); ++i) {
    const auto& [kind, span, end] = expected[i];
    EXPECT_EQ(view[i].kind, kind) << i;
    EXPECT_EQ(view[i].text, span) << i;
    EXPECT_EQ(view[i].end, end) << i;
  }
  EXPECT_EQ(view[11].number, -25.0);
  EXPECT_FALSE(view[1].escaped);
  EXPECT_TRUE(view[6].escaped);
  EXPECT_TRUE(view.equals(6, "b!"));
  EXPECT_FALSE(view.equals(6, "b\\u0021"));
  std::string value;
  view.string(9, value);
  EXPECT_EQ(value, "x\ny");
  // Members of the root: keys a, b!, d, each found at the last one's end.
  std::vector<std::string> keys;
  for (std::uint32_t key = 1; key < view[0].end; key = view[key].end) {
    view.string(key, value);
    keys.push_back(value);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b!", "d"}));
}

// An escaped surrogate pair is one astral code point in 4-byte UTF-8; a
// surrogate without its partner keeps its 3-byte encoding.
TEST(JsonView, SurrogatePairDecodesToOneCodePoint) {
  const struct {
    const char* json;
    std::string_view bytes;
  } cases[] = {
      {R"(["\ud83d\ude00"])", "\xF0\x9F\x98\x80"},
      {R"(["a\ud800\udc00b"])", "a\xF0\x90\x80\x80" "b"},
      {R"(["\udbff\udfff"])", "\xF4\x8F\xBF\xBF"},
      {R"(["\ud83d"])", "\xED\xA0\xBD"},
      {R"(["\ude00\ud83d"])", "\xED\xB8\x80\xED\xA0\xBD"},
      {R"(["\ud83dA"])", "\xED\xA0\xBD" "A"},
      {R"(["\ud83d\n"])", "\xED\xA0\xBD\n"},
  };
  for (const auto& c : cases) {
    const auto scanned = JsonView::scan(c.json);
    ASSERT_TRUE(scanned.ok()) << c.json;
    std::string value;
    scanned.value().string(1, value);
    EXPECT_EQ(value, c.bytes) << c.json;
  }
}

TEST(Strings, Strf) { EXPECT_EQ(strf("%d-%s", 3, "x"), "3-x"); }

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4 KiB");
  EXPECT_EQ(format_bytes(3ULL << 20), "3 MiB");
  EXPECT_EQ(format_bytes(8ULL << 30), "8 GiB");
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(format_count(7), "7");
  EXPECT_EQ(format_count(1234), "1,234");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "10000"});
  const auto text = t.render();
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 10000 |"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.render().find("| x |"), std::string::npos);
}

TEST(ResultType, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(ok.value_or(9), 5);

  Result<int> bad = make_error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_EQ(bad.value_or(9), 9);
}

TEST(ResultType, VoidStatus) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad = make_error("x");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "x");
}

TEST(TypesTest, ByteLiterals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(3_MiB, 3u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

}  // namespace
}  // namespace clara
