#include "common/strings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace clara {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const auto b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0) return strf("%llu GiB", (unsigned long long)(bytes >> 30));
  if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) return strf("%llu MiB", (unsigned long long)(bytes >> 20));
  if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) return strf("%llu KiB", (unsigned long long)(bytes >> 10));
  return strf("%llu B", (unsigned long long)bytes);
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i == lead || (i > lead && (i - lead) % 3 == 0)) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; O(|a|*|b|) time, O(|b|) space.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({sub, row[j] + 1, row[j - 1] + 1});
    }
  }
  return row[b.size()];
}

std::string closest_match(std::string_view word, const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_dist = std::numeric_limits<std::size_t>::max();
  bool tie = false;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(word, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
      tie = false;
    } else if (d == best_dist) {
      tie = true;
    }
  }
  const std::size_t cutoff = std::max<std::size_t>(2, word.size() / 3);
  if (best_dist > cutoff || (tie && best_dist > 0)) return {};
  return best;
}

}  // namespace clara
