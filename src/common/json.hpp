// Minimal JSON reader (RFC 8259 subset, no external dependency).
//
// Clara writes JSON in several places (BENCH_perf.json, Chrome traces,
// metrics dumps, the clara-serve/1 wire); this is the matching reader.
// One scanner (JsonView::scan) checks a document's syntax and records a
// flat view of its values; two readers consume that view: Json::parse
// builds a tree from it, used by `clara bench diff` and by the tests to
// validate every exporter's output, and the wire codec (core/request)
// decodes its field lists straight from it. Numbers are stored as
// double — fine for benchmark figures and trace timestamps, which are
// doubles to begin with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace clara {

/// Quotes and escapes a string for JSON output (", \, and control
/// characters; everything else passes through byte-for-byte).
std::string json_quote(std::string_view s);
/// json_quote(s), appended to `out`.
void json_quote(std::string& out, std::string_view s);

/// Deterministic JSON number formatting: the first of %.15g, %.16g and
/// %.17g that reads back as the same double, so serialize→parse→serialize
/// is byte-identical. Non-finite values (no JSON spelling) emit 0.
std::string json_number(double value);
/// json_number(value), appended to `out`.
void json_number(std::string& out, double value);

class JsonView;

/// One parsed JSON value. Object members keep source order-independent
/// access via a std::map; duplicate keys keep the last occurrence.
class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return array_; }
  [[nodiscard]] const Object& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* get(const std::string& key) const;
  /// get(key)->as_double(fallback), tolerating a missing member.
  [[nodiscard]] double number_at(const std::string& key, double fallback = 0.0) const;
  [[nodiscard]] std::string string_at(const std::string& key,
                                      const std::string& fallback = {}) const;
  [[nodiscard]] bool bool_at(const std::string& key, bool fallback = false) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<Json, Error> parse(std::string_view text);

 private:
  /// The tree of node `index` of a scanned view.
  static Json build(const JsonView& view, std::uint32_t index);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// One scan of a JSON document: its syntax checked in one pass, and each
/// value recorded as a node, in document order with a container before
/// its members. An object's members are its key and value nodes in turn.
/// Nodes point into the scanned text, which must outlive the view.
class JsonView {
 public:
  struct Node {
    /// A string's bytes between its quotes (escapes as written), a
    /// number's token, or the literal true/false/null.
    std::string_view text;
    double number = 0.0;  // kNumber: the value
    /// The node after this value, members included; for an object key,
    /// the node after its member's value. So a container's members (keys)
    /// or elements run from its index + 1, each at the last one's end,
    /// up to its own end.
    std::uint32_t end = 0;
    Json::Kind kind = Json::Kind::kNull;
    bool escaped = false;  // kString: holds a backslash escape
  };

  /// Scans a complete JSON document (trailing garbage is an error; a
  /// document nested deeper than 64 levels is refused). Errors are kParse
  /// "json: <what> at offset <n>".
  static Result<JsonView, Error> scan(std::string_view text);

  [[nodiscard]] const Node& operator[](std::uint32_t index) const { return nodes_[index]; }
  /// String node `index`'s value, escapes decoded, assigned to `out`.
  void string(std::uint32_t index, std::string& out) const;
  /// Whether string node `index`'s value is `text`.
  [[nodiscard]] bool equals(std::uint32_t index, std::string_view text) const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace clara
