// String utilities used by the CIR parser, profile parser and reports.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace clara {

/// Splits on the separator; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Strict integer / double parsing: the whole string must be consumed,
/// and a double must be finite (no "inf", "nan" or overflow).
std::optional<std::int64_t> parse_int(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte counts ("4 KiB", "3 MiB").
std::string format_bytes(std::uint64_t bytes);

/// Thousands separators: 1234567 -> "1,234,567".
std::string format_count(std::uint64_t value);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The candidate closest to `word` by edit distance, for "did you mean"
/// suggestions. Returns empty when no candidate is close enough
/// (distance > max(2, |word|/3)) or on ties that are not exact.
std::string closest_match(std::string_view word, const std::vector<std::string>& candidates);

}  // namespace clara
