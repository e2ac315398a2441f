#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "common/strings.hpp"

namespace clara {

void json_quote(std::string& out, std::string_view s) {
  out += '"';
  std::size_t plain = 0;  // start of the run of bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_quote(out, s);
  return out;
}

namespace {

/// The double a number token spells, or nullopt unless from_chars reads
/// the whole token. A value out of range gets strtod's reading (±HUGE_VAL
/// or 0), which from_chars does not give.
std::optional<double> read_number(std::string_view token) {
  double value = 0.0;
  const auto [end, error] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (end != token.data() + token.size()) return std::nullopt;
  if (error == std::errc::result_out_of_range) return std::strtod(std::string(token).c_str(), nullptr);
  if (error != std::errc()) return std::nullopt;
  return value;
}

}  // namespace

void json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  // to_chars with a precision is printf's %.Pg by definition.
  char text[32];
  for (const int precision : {15, 16}) {
    const auto end = std::to_chars(text, text + sizeof text, value, std::chars_format::general, precision).ptr;
    if (read_number({text, static_cast<std::size_t>(end - text)}) == value) {
      out.append(text, end);
      return;
    }
  }
  out.append(text, std::to_chars(text, text + sizeof text, value, std::chars_format::general, 17).ptr);
}

std::string json_number(double value) {
  std::string out;
  json_number(out, value);
  return out;
}

const Json* Json::get(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double Json::number_at(const std::string& key, double fallback) const {
  const Json* member = get(key);
  return member ? member->as_double(fallback) : fallback;
}

std::string Json::string_at(const std::string& key, const std::string& fallback) const {
  const Json* member = get(key);
  return member && member->is_string() ? member->as_string() : fallback;
}

bool Json::bool_at(const std::string& key, bool fallback) const {
  const Json* member = get(key);
  return member ? member->as_bool(fallback) : fallback;
}

namespace {

/// Recursive-descent scanner over the input text: checks the syntax and
/// appends one node per value to the view. Depth-limited so a
/// pathological file cannot overflow the stack.
class JsonScanner {
 public:
  JsonScanner(std::string_view text, std::vector<JsonView::Node>& nodes) : text_(text), nodes_(nodes) {}

  Status run() {
    if (auto status = scan_value(0); !status) return status;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after JSON document");
    return {};
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] Error fail(const std::string& what) const {
    return make_error(ErrorCode::kParse, strf("json: %s at offset %zu", what.c_str(), pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Appends a node for the value at [start, pos_) and returns its index.
  std::uint32_t add(Json::Kind kind, std::size_t start) {
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({.text = text_.substr(start, pos_ - start), .end = index + 1, .kind = kind});
    return index;
  }

  Status scan_value(int depth) {  // NOLINT(misc-no-recursion)
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return scan_object(depth);
    if (c == '[') return scan_array(depth);
    if (c == '"') return scan_string();
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) != word) continue;
      pos_ += word.size();
      add(word == "null" ? Json::Kind::kNull : Json::Kind::kBool, pos_ - word.size());
      return {};
    }
    return scan_number();
  }

  Status scan_object(int depth) {  // NOLINT(misc-no-recursion)
    const std::uint32_t object = add(Json::Kind::kObject, pos_++);
    skip_ws();
    while (!consume('}')) {
      if (nodes_.size() > object + 1 && !consume(',')) return fail("expected ',' or '}' in object");
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      const auto key = static_cast<std::uint32_t>(nodes_.size());
      if (auto status = scan_string(); !status) return status;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      if (auto status = scan_value(depth + 1); !status) return status;
      nodes_[key].end = static_cast<std::uint32_t>(nodes_.size());
      skip_ws();
    }
    nodes_[object].end = static_cast<std::uint32_t>(nodes_.size());
    return {};
  }

  Status scan_array(int depth) {  // NOLINT(misc-no-recursion)
    const std::uint32_t array = add(Json::Kind::kArray, pos_++);
    skip_ws();
    while (!consume(']')) {
      if (nodes_.size() > array + 1 && !consume(',')) return fail("expected ',' or ']' in array");
      if (auto status = scan_value(depth + 1); !status) return status;
      skip_ws();
    }
    nodes_[array].end = static_cast<std::uint32_t>(nodes_.size());
    return {};
  }

  Status scan_string() {
    const std::size_t start = ++pos_;
    bool escaped = false;
    while (true) {
      // Plain bytes, in a loop of their own: most strings hold nothing else.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
             static_cast<unsigned char>(text_[end]) >= 0x20) {
        ++end;
      }
      pos_ = end;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') {
        nodes_.push_back({.text = text_.substr(start, pos_ - 1 - start),
                          .end = static_cast<std::uint32_t>(nodes_.size() + 1),
                          .kind = Json::Kind::kString,
                          .escaped = escaped});
        return {};
      }
      if (c != '\\') return fail("unescaped control character");
      escaped = true;
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': case '\\': case '/': case 'b': case 'f': case 'n': case 'r': case 't': break;
        case 'u':
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) return fail("bad \\u escape digit");
          }
          break;
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// RFC 8259's number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?.
  /// The token runs over every sign, digit, dot and exponent in that
  /// order, and one that breaks the grammar is malformed at its end.
  Status scan_number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
      return pos_ - from;
    };
    consume('-');
    const bool leading_zero = pos_ < text_.size() && text_[pos_] == '0';
    const std::size_t integer = digits();
    bool grammatical = integer == 1 || (integer > 1 && !leading_zero);
    if (consume('.')) grammatical = digits() > 0 && grammatical;
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      grammatical = digits() > 0 && grammatical;
    }
    if (pos_ == start) return fail("expected a value");
    const auto value = grammatical ? read_number(text_.substr(start, pos_ - start)) : std::nullopt;
    if (!value) return fail("malformed number");
    nodes_[add(Json::Kind::kNumber, start)].number = *value;
    return {};
  }

  std::string_view text_;
  std::vector<JsonView::Node>& nodes_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonView, Error> JsonView::scan(std::string_view text) {
  JsonView view;
  view.nodes_.reserve(64);
  if (auto status = JsonScanner(text, view.nodes_).run(); !status) return status.error();
  return view;
}

void JsonView::string(std::uint32_t index, std::string& out) const {
  const std::string_view text = nodes_[index].text;
  if (!nodes_[index].escaped) {
    out.assign(text);
    return;
  }
  // scan() checked every escape, so each is complete and known.
  out.clear();
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::size_t escape = text.find('\\', i);
    out.append(text, i, escape - i);
    if (escape == std::string_view::npos) break;
    i = escape + 1;
    switch (const char c = text[i]) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const auto hex4 = [&text](std::size_t at) {
          unsigned code = 0;
          std::from_chars(text.data() + at, text.data() + at + 4, code, 16);
          return code;
        };
        unsigned code = hex4(i + 1);
        i += 4;
        // A high surrogate escaped right before a low one is one code
        // point past the BMP; a lone surrogate encodes as-is.
        if (code >= 0xD800 && code < 0xDC00 && text.substr(i + 1, 2) == "\\u") {
          if (const unsigned low = hex4(i + 3); low >= 0xDC00 && low < 0xE000) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            i += 6;
          }
        }
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (code >> 18));
          out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: out += c;  // " \ /
    }
  }
}

bool JsonView::equals(std::uint32_t index, std::string_view text) const {
  if (!nodes_[index].escaped) return nodes_[index].text == text;
  std::string value;
  string(index, value);
  return value == text;
}

Json Json::build(const JsonView& view, std::uint32_t index) {  // NOLINT(misc-no-recursion)
  const JsonView::Node& node = view[index];
  Json out;
  out.kind_ = node.kind;
  switch (node.kind) {
    case Kind::kNull: break;
    case Kind::kBool: out.bool_ = node.text == "true"; break;
    case Kind::kNumber: out.number_ = node.number; break;
    case Kind::kString: view.string(index, out.string_); break;
    case Kind::kArray:
      for (std::uint32_t item = index + 1; item < node.end; item = view[item].end) {
        out.array_.push_back(build(view, item));
      }
      break;
    case Kind::kObject: {
      std::string key;
      for (std::uint32_t member = index + 1; member < node.end; member = view[member].end) {
        view.string(member, key);
        out.object_[key] = build(view, member + 1);  // a duplicate key keeps its last value
      }
      break;
    }
  }
  return out;
}

Result<Json, Error> Json::parse(std::string_view text) {
  auto view = JsonView::scan(text);
  if (!view) return view.error();
  return build(view.value(), 0);
}

}  // namespace clara
