#include "core/request.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "workload/profile.hpp"

namespace clara::core {

namespace {

// --- field lists -------------------------------------------------------------
//
// Each wire message is one list: `v(key, member, codec...)` names each
// field once, in wire order. The member's type picks the codec (string,
// bool, number, enum by its to_string name, nested object, array); a
// tag picks the rest. Writer emits the lists and Reader parses them.

/// A count: an integral JSON number in [lo, hi].
struct Count {
  double lo, hi;
};
/// Up to 2^53, where every integer is still a distinct double.
constexpr Count kCount{0.0, 9007199254740992.0};
/// A JSON number in the closed range [lo, hi]. JSON has no infinity, but a
/// spelling past the double range (1e400) reads as one.
struct Range {
  double lo, hi;
};
/// A u64 as a string of decimal digits (a double loses it above 2^53).
struct Decimal {};
/// One PipelineStages flag, as a bool.
struct Bit {
  std::uint32_t flag;
};
/// A field every line must carry.
struct Required {};

/// `M` or `const M`: Writer visits const messages, Reader mutable ones.
template <class T, class M>
concept Is = std::same_as<std::remove_const_t<T>, M>;
template <class T>
concept Enum = std::is_enum_v<T>;
template <class T>
concept Struct = std::is_class_v<T>;

void fields(auto& v, Is<PipelineStages> auto& stages) {
  v("patterns", stages.mask, Bit{PipelineStages::kPatterns});
  v("optimize", stages.mask, Bit{PipelineStages::kOptimize});
  v("ilp", stages.mask, Bit{PipelineStages::kIlp});
}

void fields(auto& v, Is<mapping::MapOptions> auto& map) {
  v("pps", map.pps, Range{workload::kMinPps, workload::kMaxPps});
  v("ctm_state_fraction", map.ctm_state_fraction, Range{0.0, 1.0});
  v("max_ilp_nodes", map.max_ilp_nodes, kCount);
  v("time_budget_ms", map.time_budget_ms, Range{0.0, 1e9});
}

void fields(auto& v, Is<PredictOptions> auto& predict) {
  // A class key holds the bucket in its top 16 bits.
  v("payload_buckets", predict.payload_buckets, Count{1.0, 65536.0});
  v("model_emem_cache", predict.model_emem_cache);
  v("model_queueing", predict.model_queueing);
  v("nic_share", predict.nic_share, Range{0.05, 1.0});  // predict's clamp
  v("foreign_cache_pressure_bytes", predict.foreign_cache_pressure_bytes, Range{0.0, kCount.hi});
}

void fields(auto& v, Is<Request> auto& r) {
  v("proto", kServeProtocol);
  v("id", r.id);
  v("kind", r.kind, Required{});
  v("nf", r.nf);
  v("nf_cir", r.nf_cir);
  v("nic", r.nic);
  v("workload", r.workload);
  v("trace_file", r.trace_file);
  v("stages", r.options.stages);
  v("fail_on_unknown_calls", r.options.fail_on_unknown_calls);
  v("use_cache", r.options.use_cache);
  v("map", r.options.map);
  v("predict", r.options.predict);
  v("sweep_pps", r.sweep_pps);
  v("fault_plan", r.fault_plan);
  v("energy", r.energy);
  v("breakdown", r.breakdown);
  v("partial", r.partial);
  v("paths", r.paths);
}

void fields(auto& v, Is<ClassSummary> auto& c) {
  v("name", c.name);
  v("fraction", c.fraction);
  v("latency_cycles", c.latency_cycles);
}

void fields(auto& v, Is<SweepPointSummary> auto& p) {
  v("pps", p.pps);
  v("seed", p.seed, Decimal{});
  v("ok", p.ok);
  v("error", p.error);
  v("mean_latency_us", p.mean_latency_us);
  v("worst_case_cycles", p.worst_case_cycles);
  v("bottleneck", p.bottleneck);
}

void fields(auto& v, Is<Response> auto& r) {
  v("proto", kServeProtocol);
  v("id", r.id);
  v("kind", r.kind, Required{});
  v("ok", r.ok);
  v("error_code", r.error_code);
  v("error", r.error);
  v("retry_after_ms", r.retry_after_ms);
  v("nf_name", r.nf_name);
  v("nic", r.nic);
  v("workload", r.workload);
  v("substituted", r.substituted, kCount);
  v("patterns", r.patterns, kCount);
  v("greedy_mapper", r.greedy_mapper);
  v("degraded", r.degraded);
  v("repaired", r.repaired);
  v("repair_displaced", r.repair_displaced, kCount);
  v("repair_pinned", r.repair_pinned, kCount);
  v("mean_latency_cycles", r.mean_latency_cycles);
  v("mean_latency_us", r.mean_latency_us);
  v("worst_case_cycles", r.worst_case_cycles);
  v("throughput_pps", r.throughput_pps);
  v("bottleneck", r.bottleneck);
  v("emem_cache_hit_rate", r.emem_cache_hit_rate);
  v("flow_cache_hit_rate", r.flow_cache_hit_rate);
  v("classes", r.classes);
  v("report", r.report);
  v("breakdown_text", r.breakdown_text);
  v("partial_text", r.partial_text);
  v("paths_text", r.paths_text);
  v("energy_nj_per_packet", r.energy_nj_per_packet);
  v("energy_watts", r.energy_watts);
  v("energy_nj_per_packet_total", r.energy_nj_per_packet_total);
  v("sweep", r.sweep);
  v("predicted_cycles", r.predicted_cycles);
  v("simulated_cycles", r.simulated_cycles);
  v("rel_err", r.rel_err);
  v("validation_text", r.validation_text);
}

// --- emission ----------------------------------------------------------------

/// Emits every field of a list, always, in list order, with json_number's
/// round-trip formatting, so serialize→parse→serialize is byte-identical.
/// The whole line, its '\n' included, is written into one buffer.
class Writer {
 public:
  static std::string line(const Struct auto& message) {
    Writer writer;
    writer.out_.reserve(4096);
    writer.encode(message);
    writer.out_ += '\n';
    return std::move(writer.out_);
  }

  void operator()(const char* key, const auto& member, auto... codec) {
    out_.append(first_ ? "\"" : ",\"").append(key).append("\":");
    first_ = false;
    encode(member, codec...);
  }

 private:
  void encode(const char* constant) { json_quote(out_, constant); }
  void encode(const std::string& text) { json_quote(out_, text); }
  void encode(bool flag) { out_ += flag ? "true" : "false"; }
  void encode(double number, Range = {}) { json_number(out_, number); }
  void encode(std::uint32_t mask, Bit bit) { encode((mask & bit.flag) != 0); }
  void encode(std::uint64_t count, Count) { digits(count); }
  void encode(std::uint64_t number, Decimal) {
    out_ += '"';
    digits(number);
    out_ += '"';
  }
  void encode(Enum auto value, Required = {}) { json_quote(out_, to_string(value)); }
  template <class T>
  void encode(const std::vector<T>& items) {
    out_ += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out_ += ',';
      encode(items[i]);
    }
    out_ += ']';
  }
  void encode(const Struct auto& message) {
    out_ += '{';
    first_ = true;
    fields(*this, message);
    out_ += '}';
    first_ = false;
  }
  void digits(std::uint64_t number) {
    char text[20];
    out_.append(text, std::to_chars(text, text + sizeof text, number).ptr);
  }

  std::string out_;
  bool first_ = true;
};

// --- parsing -----------------------------------------------------------------

std::string did_you_mean(std::string message, const std::string& word,
                         const std::vector<std::string>& candidates) {
  const std::string suggestion = closest_match(word, candidates);
  if (!suggestion.empty()) message += strf(" (did you mean \"%s\"?)", suggestion.c_str());
  return message;
}

/// Decodes one JSON object of a scanned line by its list, checking in a
/// fixed order so a line with several faults always gets the same error:
/// the proto, unknown keys, the kind, then the other fields in list order.
/// A wrong JSON type or an out-of-range count is kParse naming the field's
/// dotted path (`map.time_budget_ms`); an absent field keeps the struct's
/// default. A duplicate key's last value is the one read, and of several
/// unknown keys the first in sorted order is the one named.
class Reader {
 public:
  /// One field of a list: its key and its member's value node, or kAbsent.
  struct Row {
    std::string_view key;
    std::uint32_t node;
  };

  /// Reads object node `node` of `view`; `key` names the value: the
  /// message at the top, else its field. `rows` holds every open
  /// Reader's rows, one per field.
  Reader(const JsonView& view, std::uint32_t node, const char* key, std::vector<Row>& rows,
         const Reader* parent = nullptr, int index = -1)
      : view_(view), node_(node), key_(key), parent_(parent), index_(index), rows_(rows),
        base_(rows.size()) {}

  Status read(Struct auto& message) {
    if (view_[node_].kind != Json::Kind::kObject) fail(strf("\"%s\" must be an object", where().c_str()));
    if (status_) match(message);
    for (const Pass pass : {kProtocol, kRequired, kOptional}) {
      if (!status_) break;
      pass_ = pass;
      row_ = 0;
      fields(*this, message);
      if (pass == kProtocol && unknown_) {
        std::vector<std::string> keys;
        for (std::size_t row = base_; row < rows_.size(); ++row) keys.emplace_back(rows_[row].key);
        fail(did_you_mean(strf("unknown field \"%s\" in %s", unknown_->c_str(), where().c_str()), *unknown_,
                          keys));
      }
    }
    rows_.resize(base_);
    return status_;
  }

  void operator()(const char* key, const char* constant) {
    const std::uint32_t node = take(key, kProtocol);
    if (pass_ != kProtocol || !status_) return;
    const bool string = node != kAbsent && view_[node].kind == Json::Kind::kString;
    if (string && view_.equals(node, constant)) return;
    std::string value;  // "" unless a string
    if (string) view_.string(node, value);
    fail(strf("%s %s \"%s\" unsupported (this server speaks %s)", where().c_str(), key,
              value.c_str(), constant));
  }
  void operator()(const char* key, auto& member, Required) {
    if (const std::uint32_t node = take(key, kRequired); node != kAbsent) decode(key, node, member);
  }
  void operator()(const char* key, auto& member, auto... codec) {
    if (const std::uint32_t node = take(key, kOptional); node != kAbsent) decode(key, node, member, codec...);
  }

 private:
  enum Pass { kProtocol, kRequired, kOptional };
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Row `key`'s value node when this pass decodes it, else kAbsent.
  std::uint32_t take(const char* key, Pass pass) {
    const std::uint32_t node = rows_[base_ + row_++].node;
    if (pass != pass_ || !status_) return kAbsent;
    if (node == kAbsent && pass == kRequired) fail(strf("missing %s", path(key).c_str()));
    return node;
  }

  /// Points each row at its member in one walk over the object. Clara
  /// writes members in list order, so the row after the last one matched
  /// is tried first, then every row. A repeated key's last member wins,
  /// and of the keys no row names the first in sorted order is kept.
  void match(Struct auto& message) {
    auto add = [this](const char* key, const auto&...) { rows_.push_back({key, kAbsent}); };
    fields(add, message);
    const std::size_t count = rows_.size() - base_;
    std::size_t next = 0;
    std::string key;
    for (std::uint32_t member = node_ + 1; member < view_[node_].end; member = view_[member].end) {
      std::size_t row = next;
      if (row >= count || !view_.equals(member, rows_[base_ + row].key)) {
        row = 0;
        while (row < count && !view_.equals(member, rows_[base_ + row].key)) ++row;
      }
      if (row < count) {
        rows_[base_ + row].node = member + 1;
        next = row + 1;
        continue;
      }
      view_.string(member, key);
      if (!unknown_ || key < *unknown_) unknown_ = key;
    }
  }

  [[nodiscard]] Json::Kind kind(std::uint32_t node) const { return view_[node].kind; }

  void decode(const char* key, std::uint32_t node, std::string& text) {
    if (kind(node) != Json::Kind::kString) return mistyped(key, "a string");
    view_.string(node, text);
  }
  void decode(const char* key, std::uint32_t node, bool& flag) {
    if (kind(node) != Json::Kind::kBool) return mistyped(key, "true or false");
    flag = view_[node].text == "true";
  }
  void decode(const char* key, std::uint32_t node, double& number) {
    if (kind(node) != Json::Kind::kNumber) return mistyped(key, "a number");
    number = view_[node].number;
  }
  void decode(const char* key, std::uint32_t node, std::uint32_t& mask, Bit bit) {
    if (kind(node) != Json::Kind::kBool) return mistyped(key, "true or false");
    mask = view_[node].text == "true" ? mask | bit.flag : mask & ~bit.flag;
  }
  void decode(const char* key, std::uint32_t node, double& number, Range range) {
    const double value = view_[node].number;
    if (kind(node) != Json::Kind::kNumber || !(value >= range.lo && value <= range.hi)) {
      return mistyped(key, ("a number in [" + json_number(range.lo) + ", " + json_number(range.hi) + "]").c_str());
    }
    number = value;
  }
  template <std::unsigned_integral N>
  void decode(const char* key, std::uint32_t node, N& count, Count range) {
    const double value = view_[node].number;
    if (kind(node) != Json::Kind::kNumber || !(value >= range.lo && value <= range.hi) ||
        value != std::floor(value)) {
      return mistyped(key, strf("an integer in [%.0f, %.0f]", range.lo, range.hi).c_str());
    }
    count = static_cast<N>(value);
  }
  void decode(const char* key, std::uint32_t node, std::unsigned_integral auto& number, Decimal) {
    std::string text;
    if (kind(node) == Json::Kind::kString) view_.string(node, text);
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), number);
    if (kind(node) != Json::Kind::kString || error != std::errc() || end != text.data() + text.size()) {
      mistyped(key, "a string of decimal digits");
    }
  }
  template <Enum E>
  void decode(const char* key, std::uint32_t node, E& value) {
    if (kind(node) != Json::Kind::kString) return mistyped(key, "a string");
    // to_string spells every enumerator and answers "?" past the last.
    std::vector<std::string> names;
    for (int i = 0; std::strcmp(to_string(static_cast<E>(i)), "?") != 0; ++i) {
      if (view_.equals(node, to_string(static_cast<E>(i)))) {
        value = static_cast<E>(i);
        return;
      }
      names.emplace_back(to_string(static_cast<E>(i)));
    }
    std::string text;
    view_.string(node, text);
    fail(did_you_mean(strf("unknown %s \"%s\"", path(key).c_str(), text.c_str()), text, names));
  }
  template <class T>
  void decode(const char* key, std::uint32_t node, std::vector<T>& items) {
    if (kind(node) != Json::Kind::kArray) return mistyped(key, "an array");
    items.clear();
    int i = 0;
    for (std::uint32_t item = node + 1; item < view_[node].end && status_; item = view_[item].end, ++i) {
      if constexpr (std::is_class_v<T>) {
        status_ = Reader(view_, item, key, rows_, this, i).read(items.emplace_back());
      } else {
        decode(key, item, items.emplace_back());
      }
    }
  }
  void decode(const char* key, std::uint32_t node, Struct auto& message) {
    status_ = Reader(view_, node, key, rows_, this).read(message);
  }

  /// The path of this value (`map`, `classes[0]`) or of its field `key`.
  [[nodiscard]] std::string where() const {
    if (parent_ == nullptr) return key_;
    return parent_->path(key_) + (index_ < 0 ? "" : strf("[%d]", index_));
  }
  [[nodiscard]] std::string path(const char* key) const {
    return parent_ == nullptr ? key : where() + '.' + key;
  }
  void mistyped(const char* key, const char* expected) {
    fail(strf("\"%s\" must be %s", path(key).c_str(), expected));
  }
  void fail(std::string message) {
    if (status_) status_ = make_error(ErrorCode::kParse, std::move(message));
  }

  const JsonView& view_;
  std::uint32_t node_;
  const char* key_;
  const Reader* parent_;
  int index_;
  std::vector<Row>& rows_;
  std::size_t base_;  // this Reader's first row in rows_
  Pass pass_ = kProtocol;
  std::size_t row_ = 0;
  std::optional<std::string> unknown_;  // the first unknown key in sorted order
  Status status_;
};

template <class M>
Result<M> read_line(std::string_view text, const char* what) {
  if (text.size() > kMaxWireBytes) {
    return make_error(ErrorCode::kParse, strf("%s line too large (%zu bytes, limit %zu)", what,
                                              text.size(), kMaxWireBytes));
  }
  auto view = JsonView::scan(text);
  if (!view) return view.error();
  std::vector<Reader::Row> rows;
  rows.reserve(64);
  M message;
  if (auto status = Reader(view.value(), 0, what, rows).read(message); !status) return status.error();
  return message;
}

std::string without_newline(std::string line) {
  line.pop_back();
  return line;
}

}  // namespace

std::string Request::to_json() const { return without_newline(to_line()); }

std::string Request::to_line() const { return Writer::line(*this); }

Result<Request> Request::from_json(std::string_view text) {
  return read_line<Request>(text, "request");
}

std::string Response::to_json() const { return without_newline(to_line()); }

std::string Response::to_line() const { return Writer::line(*this); }

Result<Response> Response::from_json(std::string_view text) {
  return read_line<Response>(text, "response");
}

Response error_response(const Request& request, ErrorCode code, std::string message) {
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.ok = false;
  response.error_code = code;
  response.error = std::move(message);
  return response;
}

}  // namespace clara::core
