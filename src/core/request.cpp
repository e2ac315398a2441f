#include "core/request.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <type_traits>

#include "common/json.hpp"
#include "common/strings.hpp"

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
  v("pps", map.pps);
  v("ctm_state_fraction", map.ctm_state_fraction);
  v("max_ilp_nodes", map.max_ilp_nodes, kCount);
  v("time_budget_ms", map.time_budget_ms);
}

void fields(auto& v, Is<PredictOptions> auto& predict) {
  // A class key holds the bucket in its top 16 bits.
  v("payload_buckets", predict.payload_buckets, Count{1.0, 65536.0});
  v("model_emem_cache", predict.model_emem_cache);
  v("model_queueing", predict.model_queueing);
  v("nic_share", predict.nic_share);
  v("foreign_cache_pressure_bytes", predict.foreign_cache_pressure_bytes);
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
class Writer {
 public:
  static std::string line(const Struct auto& message) {
    Writer writer;
    writer.out_.reserve(1024);
    writer.encode(message);
    return std::move(writer.out_);
  }

  void operator()(const char* key, const auto& member, auto... codec) {
    out_ += first_ ? "\"" : ",\"";
    first_ = false;
    out_ += key;
    out_ += "\":";
    encode(member, codec...);
  }

 private:
  void encode(const char* constant) { out_ += json_quote(constant); }
  void encode(const std::string& text) { out_ += json_quote(text); }
  void encode(bool flag) { out_ += flag ? "true" : "false"; }
  void encode(double number) { out_ += json_number(number); }
  void encode(std::uint32_t mask, Bit bit) { encode((mask & bit.flag) != 0); }
  void encode(std::uint64_t count, Count) { out_ += std::to_string(count); }
  void encode(std::uint64_t number, Decimal) { out_ += '"' + std::to_string(number) + '"'; }
  void encode(Enum auto value, Required = {}) { out_ += json_quote(to_string(value)); }
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

/// Parses one JSON value by its list, checking in a fixed order so a line
/// with several faults always gets the same error: the proto, unknown keys,
/// the kind, then the other fields in list order. A wrong JSON type or an
/// out-of-range count is kParse naming the field's dotted path
/// (`map.time_budget_ms`); an absent field keeps the struct's default.
class Reader {
 public:
  /// `key` names the value: the message at the top, else its field.
  Reader(const Json& json, const char* key, const Reader* parent = nullptr, int index = -1)
      : json_(json), key_(key), parent_(parent), index_(index) {}

  Status read(Struct auto& message) {
    if (!json_.is_object()) fail(strf("\"%s\" must be an object", where().c_str()));
    for (const Pass pass : {kProtocol, kRequired, kOptional}) {
      if (!status_) break;
      pass_ = pass;
      row_ = 0;
      fields(*this, message);
      if (pass == kProtocol) reject_unknown(message);
    }
    return status_;
  }

  void operator()(const char* key, const char* constant) {
    const Json* json = take(key, kProtocol);
    if (pass_ != kProtocol || !status_) return;
    const std::string value = json != nullptr ? json->as_string() : "";  // "" unless a string
    if (value == constant) return;
    fail(strf("%s %s \"%s\" unsupported (this server speaks %s)", where().c_str(), key,
              value.c_str(), constant));
  }
  void operator()(const char* key, auto& member, Required) {
    if (const Json* json = take(key, kRequired)) decode(key, *json, member);
  }
  void operator()(const char* key, auto& member, auto... codec) {
    if (const Json* json = take(key, kOptional)) decode(key, *json, member, codec...);
  }

 private:
  enum Pass { kProtocol, kRequired, kOptional };

  /// Row `key`'s value when this pass decodes it, else nullptr. The first
  /// pass looks every row up once and counts the keys it knows.
  const Json* take(const char* key, Pass pass) {
    const std::size_t row = row_++;
    if (pass_ == kProtocol && found_.emplace_back(json_.get(key)) != nullptr) ++present_;
    if (pass != pass_ || !status_) return nullptr;
    if (found_[row] == nullptr && pass == kRequired) fail(strf("missing %s", path(key).c_str()));
    return found_[row];
  }

  void reject_unknown(Struct auto& message) {
    if (!status_ || present_ == json_.as_object().size()) return;
    std::vector<std::string> names;
    auto collect = [&names](const char* key, const auto&...) { names.emplace_back(key); };
    fields(collect, message);
    for (const auto& member : json_.as_object()) {
      const std::string& key = member.first;
      if (std::find(names.begin(), names.end(), key) != names.end()) continue;
      return fail(did_you_mean(strf("unknown field \"%s\" in %s", key.c_str(), where().c_str()),
                               key, names));
    }
  }

  void decode(const char* key, const Json& json, std::string& text) {
    if (!json.is_string()) return mistyped(key, "a string");
    text = json.as_string();
  }
  void decode(const char* key, const Json& json, bool& flag) {
    if (!json.is_bool()) return mistyped(key, "true or false");
    flag = json.as_bool();
  }
  void decode(const char* key, const Json& json, double& number) {
    if (!json.is_number()) return mistyped(key, "a number");
    number = json.as_double();
  }
  void decode(const char* key, const Json& json, std::uint32_t& mask, Bit bit) {
    if (!json.is_bool()) return mistyped(key, "true or false");
    mask = json.as_bool() ? mask | bit.flag : mask & ~bit.flag;
  }
  template <std::unsigned_integral N>
  void decode(const char* key, const Json& json, N& count, Count range) {
    const double value = json.as_double();
    if (!json.is_number() || !(value >= range.lo && value <= range.hi) ||
        value != std::floor(value)) {
      return mistyped(key, strf("an integer in [%.0f, %.0f]", range.lo, range.hi).c_str());
    }
    count = static_cast<N>(value);
  }
  void decode(const char* key, const Json& json, std::unsigned_integral auto& number, Decimal) {
    const std::string& text = json.as_string();
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), number);
    if (!json.is_string() || error != std::errc() || end != text.data() + text.size()) {
      mistyped(key, "a string of decimal digits");
    }
  }
  template <Enum E>
  void decode(const char* key, const Json& json, E& value) {
    if (!json.is_string()) return mistyped(key, "a string");
    // to_string spells every enumerator and answers "?" past the last.
    std::vector<std::string> names;
    for (int i = 0; std::strcmp(to_string(static_cast<E>(i)), "?") != 0; ++i) {
      if (json.as_string() == to_string(static_cast<E>(i))) {
        value = static_cast<E>(i);
        return;
      }
      names.emplace_back(to_string(static_cast<E>(i)));
    }
    fail(did_you_mean(strf("unknown %s \"%s\"", path(key).c_str(), json.as_string().c_str()),
                      json.as_string(), names));
  }
  template <class T>
  void decode(const char* key, const Json& json, std::vector<T>& items) {
    if (!json.is_array()) return mistyped(key, "an array");
    items.clear();
    const Json::Array& array = json.as_array();
    for (int i = 0; i < static_cast<int>(array.size()) && status_; ++i) {
      if constexpr (std::is_class_v<T>) {
        status_ = Reader(array[i], key, this, i).read(items.emplace_back());
      } else {
        decode(key, array[i], items.emplace_back());
      }
    }
  }
  void decode(const char* key, const Json& json, Struct auto& message) {
    status_ = Reader(json, key, this).read(message);
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

  const Json& json_;
  const char* key_;
  const Reader* parent_;
  int index_;
  Pass pass_ = kProtocol;
  std::size_t row_ = 0;
  std::size_t present_ = 0;
  std::vector<const Json*> found_;
  Status status_;
};

template <class M>
Result<M> read_line(std::string_view text, const char* what) {
  if (text.size() > kMaxWireBytes) {
    return make_error(ErrorCode::kParse, strf("%s line too large (%zu bytes, limit %zu)", what,
                                              text.size(), kMaxWireBytes));
  }
  auto parsed = Json::parse(text);
  if (!parsed) return parsed.error();
  M message;
  if (auto status = Reader(parsed.value(), what).read(message); !status) return status.error();
  return message;
}

}  // namespace

std::string Request::to_json() const { return Writer::line(*this); }

Result<Request> Request::from_json(std::string_view text) {
  return read_line<Request>(text, "request");
}

std::string Response::to_json() const { return Writer::line(*this); }

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
