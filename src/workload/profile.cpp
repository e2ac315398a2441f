#include "workload/profile.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace clara::workload {

namespace {

/// A closed range: a Count's value is a decimal integer, a Real's a
/// decimal number, each the whole token (std::from_chars).
template <class T>
struct Range {
  T lo, hi;
};
using Count = Range<std::uint64_t>;
using Real = Range<double>;
/// The payload key's two members, written `n` or `lo:hi` with lo <= hi.
template <class N>
struct Span {
  N& lo;
  N& hi;
};
/// The arrivals key's names, indexed by ArrivalProcess.
constexpr const char* kArrivals[] = {"deterministic", "poisson"};

/// Every spec key once, in echo order, with its closed range. The
/// reader, the echo and the digest are all derived from this list.
void fields(auto&& v, auto& p) {
  v("tcp", p.tcp_fraction, Real{0.0, 1.0});
  v("flows", p.flows, Count{1, std::uint64_t{1} << 24});
  v("zipf", p.zipf_alpha, Real{0.0, kMaxZipf});
  v("payload", Span{p.payload_min, p.payload_max}, Count{0, 9000});
  v("pps", p.pps, Real{kMinPps, kMaxPps});
  v("packets", p.packets, Count{1, kMaxPackets});
  v("arrivals", p.arrivals, kArrivals);
  v("seed", p.seed, Count{0, ~std::uint64_t{0}});
}

// `lo <= value && value <= hi` is false for NaN, and holds before the narrowing cast.
template <class T, class R>
  requires std::is_arithmetic_v<T>
bool read(std::string_view text, T& member, Range<R> range) {
  R value{};
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  const bool ok = error == std::errc() && end == text.data() + text.size() && range.lo <= value &&
                  value <= range.hi;
  if (ok) member = static_cast<T>(value);
  return ok;
}
// A failed read leaves the span half-written; parse_profile then fails.
template <class N>
bool read(std::string_view text, Span<N> span, Count range) {
  const auto colon = text.find(':');
  return read(text.substr(0, colon), span.lo, range) &&
         read(colon == std::string_view::npos ? text : text.substr(colon + 1), span.hi, range) && span.lo <= span.hi;
}
bool read(std::string_view text, ArrivalProcess& member, const auto& names) {
  const auto* name = std::find(std::begin(names), std::end(names), text);
  if (name != std::end(names)) member = static_cast<ArrivalProcess>(name - std::begin(names));
  return name != std::end(names);
}

std::string describe(const auto& /*member*/, Count range) {
  return strf("an integer in [%llu, %llu]", (unsigned long long)range.lo, (unsigned long long)range.hi);
}
std::string describe(const auto& /*member*/, Real range) {
  return "a number in [" + json_number(range.lo) + ", " + json_number(range.hi) + "]";
}
template <class N>
std::string describe(Span<N> span, Count range) { return "n or lo:hi with lo <= hi, each " + describe(span.lo, range); }
std::string describe(ArrivalProcess /*member*/, const auto& names) { return std::string(names[0]) + " or " + names[1]; }

std::string text(double number) { return json_number(number); }
std::string text(std::unsigned_integral auto count) { return std::to_string(count); }
std::string text(ArrivalProcess arrivals) { return kArrivals[static_cast<int>(arrivals)]; }
template <class N>
std::string text(Span<N> span) { return text(span.lo) + (span.hi == span.lo ? "" : ":" + text(span.hi)); }

void mix(Fnv1a& hash, double number) { hash.mix(number); }
void mix(Fnv1a& hash, auto scalar) { hash.mix(static_cast<std::uint64_t>(scalar)); }
template <class N>
void mix(Fnv1a& hash, Span<N> span) { hash.mix(std::uint64_t{span.lo}).mix(std::uint64_t{span.hi}); }

}  // namespace

std::string WorkloadProfile::serialize() const {
  std::string out;
  fields([&out](const char* key, const auto& member, const auto& /*range*/) {
    out.append(out.empty() ? "" : " ").append(key).append("=").append(text(member));
  }, *this);
  return out;
}

std::uint64_t WorkloadProfile::digest() const {
  Fnv1a hash;
  fields([&hash](const char* /*key*/, const auto& member, const auto& /*range*/) { mix(hash, member); }, *this);
  return hash.digest();
}

Result<WorkloadProfile> parse_profile(const std::string& text) {
  WorkloadProfile p;
  for (std::string_view rest = text; !rest.empty();) {
    const auto space = rest.find(' ');
    const std::string_view token = trim(rest.substr(0, space));
    rest = space == std::string_view::npos ? std::string_view() : rest.substr(space + 1);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      return make_error(ErrorCode::kParse,
                        strf("profile: expected key=value, got '%.*s'", (int)token.size(), token.data()));
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    bool known = false;
    std::string error;
    fields([&](const char* name, auto&& member, const auto& range) {
      known = known || key == name;
      if (key != name || read(value, member, range)) return;
      error = strf("%s=%.*s must be %s", name, (int)value.size(), value.data(), describe(member, range).c_str());
    }, p);
    if (!known) {
      std::vector<std::string> keys;
      fields([&keys](const char* name, const auto&... /*member, range*/) { keys.emplace_back(name); }, p);
      const std::string near = closest_match(key, keys);
      error = strf("unknown key '%.*s'", (int)key.size(), key.data()) +
              (near.empty() ? "" : " (did you mean '" + near + "'?)");
    }
    if (!error.empty()) return make_error(ErrorCode::kParse, "profile: " + error);
  }
  return p;
}

}  // namespace clara::workload
