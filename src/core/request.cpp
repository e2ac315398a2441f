#include "core/request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace clara::core {

namespace {

/// Strict-object helper: every key must be known, and a near-miss gets
/// a did-you-mean suggestion (the same closest_match the CLI uses for
/// option typos).
Status check_keys(const Json::Object& object, const std::vector<std::string>& known,
                  const char* where) {
  for (const auto& [key, value] : object) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = strf("unknown field \"%s\" in %s", key.c_str(), where);
    const std::string suggestion = closest_match(key, known);
    if (!suggestion.empty()) message += strf(" (did you mean \"%s\"?)", suggestion.c_str());
    return make_error(ErrorCode::kParse, std::move(message));
  }
  return {};
}

/// An optional count field of `object`: absent keeps `fallback`;
/// present, it must be an integral JSON number in [lo, hi], because a
/// cast of a negative, fractional or huge double to std::size_t is
/// undefined or silently wrong.
Result<std::size_t> count_at(const Json& object, const char* key, std::size_t fallback, double lo,
                             double hi, const char* where) {
  const Json* member = object.get(key);
  if (member == nullptr) return fallback;
  const double value = member->as_double();
  if (!member->is_number() || !(value >= lo && value <= hi) || value != std::floor(value)) {
    return make_error(ErrorCode::kParse,
                      strf("\"%s.%s\" must be an integer in [%.0f, %.0f]", where, key, lo, hi));
  }
  return static_cast<std::size_t>(value);
}

Status check_size(std::string_view text, const char* what) {
  if (text.size() > kMaxWireBytes) {
    return make_error(ErrorCode::kParse, strf("%s line too large (%zu bytes, limit %zu)", what,
                                              text.size(), kMaxWireBytes));
  }
  return {};
}

Status check_proto(const Json& root, const char* what) {
  if (!root.is_object()) {
    return make_error(ErrorCode::kParse, strf("%s must be a JSON object", what));
  }
  const std::string proto = root.string_at("proto");
  if (proto != kServeProtocol) {
    return make_error(ErrorCode::kParse,
                      strf("%s proto \"%s\" unsupported (this server speaks %s)", what,
                           proto.c_str(), kServeProtocol));
  }
  return {};
}

Result<RequestKind> parse_kind(const Json& root) {
  static const std::vector<std::string> kKinds = {"analyze", "sweep", "repair", "validate",
                                                  "hello"};
  const Json* kind = root.get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return make_error(ErrorCode::kParse, "missing request kind (analyze|sweep|repair|validate)");
  }
  const std::string& name = kind->as_string();
  if (name == "analyze") return RequestKind::kAnalyze;
  if (name == "sweep") return RequestKind::kSweep;
  if (name == "repair") return RequestKind::kRepair;
  if (name == "validate") return RequestKind::kValidate;
  if (name == "hello") return RequestKind::kHello;
  std::string message = strf("unknown request kind \"%s\"", name.c_str());
  const std::string suggestion = closest_match(name, kKinds);
  if (!suggestion.empty()) message += strf(" (did you mean \"%s\"?)", suggestion.c_str());
  return make_error(ErrorCode::kParse, std::move(message));
}

ErrorCode parse_error_code(const std::string& name) {
  for (const ErrorCode code :
       {ErrorCode::kUnspecified, ErrorCode::kParse, ErrorCode::kVerify, ErrorCode::kUnknownCall,
        ErrorCode::kInfeasible, ErrorCode::kDeadline, ErrorCode::kInternal,
        ErrorCode::kOverloaded}) {
    if (name == to_string(code)) return code;
  }
  return ErrorCode::kUnspecified;
}

std::uint64_t parse_u64_string(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 10);
}

const char* bool_word(bool v) { return v ? "true" : "false"; }

}  // namespace

// --- Request -----------------------------------------------------------------

std::string Request::to_json() const {
  std::string out;
  out.reserve(512);
  out += "{\"proto\":";
  out += json_quote(kServeProtocol);
  out += ",\"id\":";
  out += json_quote(id);
  out += ",\"kind\":";
  out += json_quote(to_string(kind));
  out += ",\"nf\":";
  out += json_quote(nf);
  out += ",\"nf_cir\":";
  out += json_quote(nf_cir);
  out += ",\"nic\":";
  out += json_quote(nic);
  out += ",\"workload\":";
  out += json_quote(workload);
  out += ",\"trace_file\":";
  out += json_quote(trace_file);
  out += strf(",\"stages\":{\"patterns\":%s,\"optimize\":%s,\"ilp\":%s}",
              bool_word(options.stages.patterns()), bool_word(options.stages.optimize()),
              bool_word(options.stages.ilp()));
  out += strf(",\"fail_on_unknown_calls\":%s", bool_word(options.fail_on_unknown_calls));
  out += strf(",\"use_cache\":%s", bool_word(options.use_cache));
  out += ",\"map\":{\"pps\":";
  out += json_number(options.map.pps);
  out += ",\"ctm_state_fraction\":";
  out += json_number(options.map.ctm_state_fraction);
  out += strf(",\"max_ilp_nodes\":%llu", (unsigned long long)options.map.max_ilp_nodes);
  out += ",\"time_budget_ms\":";
  out += json_number(options.map.time_budget_ms);
  out += strf("},\"predict\":{\"payload_buckets\":%llu",
              (unsigned long long)options.predict.payload_buckets);
  out += strf(",\"model_emem_cache\":%s", bool_word(options.predict.model_emem_cache));
  out += strf(",\"model_queueing\":%s", bool_word(options.predict.model_queueing));
  out += ",\"nic_share\":";
  out += json_number(options.predict.nic_share);
  out += ",\"foreign_cache_pressure_bytes\":";
  out += json_number(options.predict.foreign_cache_pressure_bytes);
  out += "},\"sweep_pps\":[";
  for (std::size_t i = 0; i < sweep_pps.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(sweep_pps[i]);
  }
  out += "],\"fault_plan\":";
  out += json_quote(fault_plan);
  out += strf(",\"energy\":%s", bool_word(energy));
  out += strf(",\"breakdown\":%s", bool_word(breakdown));
  out += strf(",\"partial\":%s", bool_word(partial));
  out += strf(",\"paths\":%s}", bool_word(paths));
  return out;
}

Result<Request> Request::from_json(std::string_view text) {
  if (auto status = check_size(text, "request"); !status) return status.error();
  auto parsed = Json::parse(text);
  if (!parsed) return parsed.error();
  const Json& root = parsed.value();
  if (auto status = check_proto(root, "request"); !status) return status.error();

  static const std::vector<std::string> kTopKeys = {
      "proto",     "id",       "kind",      "nf",         "nf_cir",
      "nic",       "workload", "trace_file", "stages",    "fail_on_unknown_calls",
      "use_cache", "map",      "predict",   "sweep_pps",  "fault_plan",
      "energy",    "breakdown", "partial",  "paths"};
  if (auto status = check_keys(root.as_object(), kTopKeys, "request"); !status) {
    return status.error();
  }

  Request request;
  request.id = root.string_at("id");
  auto kind = parse_kind(root);
  if (!kind) return kind.error();
  request.kind = kind.value();
  request.nf = root.string_at("nf");
  request.nf_cir = root.string_at("nf_cir");
  request.nic = root.string_at("nic", request.nic);
  request.workload = root.string_at("workload");
  request.trace_file = root.string_at("trace_file");

  if (const Json* stages = root.get("stages"); stages != nullptr) {
    if (!stages->is_object()) {
      return make_error(ErrorCode::kParse, "\"stages\" must be an object");
    }
    static const std::vector<std::string> kStageKeys = {"patterns", "optimize", "ilp"};
    if (auto status = check_keys(stages->as_object(), kStageKeys, "stages"); !status) {
      return status.error();
    }
    request.options.stages.set(PipelineStages::kPatterns, stages->bool_at("patterns", true));
    request.options.stages.set(PipelineStages::kOptimize, stages->bool_at("optimize", true));
    request.options.stages.set(PipelineStages::kIlp, stages->bool_at("ilp", true));
  }
  request.options.fail_on_unknown_calls =
      root.bool_at("fail_on_unknown_calls", request.options.fail_on_unknown_calls);
  request.options.use_cache = root.bool_at("use_cache", request.options.use_cache);

  if (const Json* map = root.get("map"); map != nullptr) {
    if (!map->is_object()) return make_error(ErrorCode::kParse, "\"map\" must be an object");
    static const std::vector<std::string> kMapKeys = {"pps", "ctm_state_fraction",
                                                      "max_ilp_nodes", "time_budget_ms"};
    if (auto status = check_keys(map->as_object(), kMapKeys, "map"); !status) {
      return status.error();
    }
    request.options.map.pps = map->number_at("pps", request.options.map.pps);
    request.options.map.ctm_state_fraction =
        map->number_at("ctm_state_fraction", request.options.map.ctm_state_fraction);
    // Up to 2^53, where every integer is still a distinct double.
    auto max_ilp_nodes =
        count_at(*map, "max_ilp_nodes", request.options.map.max_ilp_nodes, 0.0, 9007199254740992.0, "map");
    if (!max_ilp_nodes) return max_ilp_nodes.error();
    request.options.map.max_ilp_nodes = max_ilp_nodes.value();
    request.options.map.time_budget_ms =
        map->number_at("time_budget_ms", request.options.map.time_budget_ms);
  }

  if (const Json* predict = root.get("predict"); predict != nullptr) {
    if (!predict->is_object()) {
      return make_error(ErrorCode::kParse, "\"predict\" must be an object");
    }
    static const std::vector<std::string> kPredictKeys = {
        "payload_buckets", "model_emem_cache", "model_queueing", "nic_share",
        "foreign_cache_pressure_bytes"};
    if (auto status = check_keys(predict->as_object(), kPredictKeys, "predict"); !status) {
      return status.error();
    }
    // A class key holds the bucket in its top 16 bits.
    auto buckets = count_at(*predict, "payload_buckets", request.options.predict.payload_buckets, 1.0,
                            65536.0, "predict");
    if (!buckets) return buckets.error();
    request.options.predict.payload_buckets = buckets.value();
    request.options.predict.model_emem_cache =
        predict->bool_at("model_emem_cache", request.options.predict.model_emem_cache);
    request.options.predict.model_queueing =
        predict->bool_at("model_queueing", request.options.predict.model_queueing);
    request.options.predict.nic_share =
        predict->number_at("nic_share", request.options.predict.nic_share);
    request.options.predict.foreign_cache_pressure_bytes = predict->number_at(
        "foreign_cache_pressure_bytes", request.options.predict.foreign_cache_pressure_bytes);
  }

  if (const Json* loads = root.get("sweep_pps"); loads != nullptr) {
    if (!loads->is_array()) {
      return make_error(ErrorCode::kParse, "\"sweep_pps\" must be an array of numbers");
    }
    for (const Json& point : loads->as_array()) {
      if (!point.is_number()) {
        return make_error(ErrorCode::kParse, "\"sweep_pps\" must be an array of numbers");
      }
      request.sweep_pps.push_back(point.as_double());
    }
  }
  request.fault_plan = root.string_at("fault_plan");
  request.energy = root.bool_at("energy", false);
  request.breakdown = root.bool_at("breakdown", false);
  request.partial = root.bool_at("partial", false);
  request.paths = root.bool_at("paths", false);
  return request;
}

// --- Response ----------------------------------------------------------------

std::string Response::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"proto\":";
  out += json_quote(kServeProtocol);
  out += ",\"id\":";
  out += json_quote(id);
  out += ",\"kind\":";
  out += json_quote(to_string(kind));
  out += strf(",\"ok\":%s", bool_word(ok));
  out += ",\"error_code\":";
  out += json_quote(to_string(error_code));
  out += ",\"error\":";
  out += json_quote(error);
  out += ",\"retry_after_ms\":";
  out += json_number(retry_after_ms);
  out += ",\"nf_name\":";
  out += json_quote(nf_name);
  out += ",\"nic\":";
  out += json_quote(nic);
  out += ",\"workload\":";
  out += json_quote(workload);
  out += strf(",\"substituted\":%llu", (unsigned long long)substituted);
  out += strf(",\"patterns\":%llu", (unsigned long long)patterns);
  out += strf(",\"greedy_mapper\":%s", bool_word(greedy_mapper));
  out += strf(",\"degraded\":%s", bool_word(degraded));
  out += strf(",\"repaired\":%s", bool_word(repaired));
  out += strf(",\"repair_displaced\":%llu", (unsigned long long)repair_displaced);
  out += strf(",\"repair_pinned\":%llu", (unsigned long long)repair_pinned);
  out += ",\"mean_latency_cycles\":";
  out += json_number(mean_latency_cycles);
  out += ",\"mean_latency_us\":";
  out += json_number(mean_latency_us);
  out += ",\"worst_case_cycles\":";
  out += json_number(worst_case_cycles);
  out += ",\"throughput_pps\":";
  out += json_number(throughput_pps);
  out += ",\"bottleneck\":";
  out += json_quote(bottleneck);
  out += ",\"emem_cache_hit_rate\":";
  out += json_number(emem_cache_hit_rate);
  out += ",\"flow_cache_hit_rate\":";
  out += json_number(flow_cache_hit_rate);
  out += ",\"classes\":[";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":";
    out += json_quote(classes[i].name);
    out += ",\"fraction\":";
    out += json_number(classes[i].fraction);
    out += ",\"latency_cycles\":";
    out += json_number(classes[i].latency_cycles);
    out += '}';
  }
  out += "],\"report\":";
  out += json_quote(report);
  out += ",\"breakdown_text\":";
  out += json_quote(breakdown_text);
  out += ",\"partial_text\":";
  out += json_quote(partial_text);
  out += ",\"paths_text\":";
  out += json_quote(paths_text);
  out += ",\"energy_nj_per_packet\":";
  out += json_number(energy_nj_per_packet);
  out += ",\"energy_watts\":";
  out += json_number(energy_watts);
  out += ",\"energy_nj_per_packet_total\":";
  out += json_number(energy_nj_per_packet_total);
  out += ",\"sweep\":[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPointSummary& point = sweep[i];
    if (i != 0) out += ',';
    out += "{\"pps\":";
    out += json_number(point.pps);
    out += strf(",\"seed\":\"%llu\"", (unsigned long long)point.seed);
    out += strf(",\"ok\":%s", bool_word(point.ok));
    out += ",\"error\":";
    out += json_quote(point.error);
    out += ",\"mean_latency_us\":";
    out += json_number(point.mean_latency_us);
    out += ",\"worst_case_cycles\":";
    out += json_number(point.worst_case_cycles);
    out += ",\"bottleneck\":";
    out += json_quote(point.bottleneck);
    out += '}';
  }
  out += "],\"predicted_cycles\":";
  out += json_number(predicted_cycles);
  out += ",\"simulated_cycles\":";
  out += json_number(simulated_cycles);
  out += ",\"rel_err\":";
  out += json_number(rel_err);
  out += ",\"validation_text\":";
  out += json_quote(validation_text);
  out += '}';
  return out;
}

Result<Response> Response::from_json(std::string_view text) {
  if (auto status = check_size(text, "response"); !status) return status.error();
  auto parsed = Json::parse(text);
  if (!parsed) return parsed.error();
  const Json& root = parsed.value();
  if (auto status = check_proto(root, "response"); !status) return status.error();

  static const std::vector<std::string> kTopKeys = {"proto",
                                                    "id",
                                                    "kind",
                                                    "ok",
                                                    "error_code",
                                                    "error",
                                                    "retry_after_ms",
                                                    "nf_name",
                                                    "nic",
                                                    "workload",
                                                    "substituted",
                                                    "patterns",
                                                    "greedy_mapper",
                                                    "degraded",
                                                    "repaired",
                                                    "repair_displaced",
                                                    "repair_pinned",
                                                    "mean_latency_cycles",
                                                    "mean_latency_us",
                                                    "worst_case_cycles",
                                                    "throughput_pps",
                                                    "bottleneck",
                                                    "emem_cache_hit_rate",
                                                    "flow_cache_hit_rate",
                                                    "classes",
                                                    "report",
                                                    "breakdown_text",
                                                    "partial_text",
                                                    "paths_text",
                                                    "energy_nj_per_packet",
                                                    "energy_watts",
                                                    "energy_nj_per_packet_total",
                                                    "sweep",
                                                    "predicted_cycles",
                                                    "simulated_cycles",
                                                    "rel_err",
                                                    "validation_text"};
  if (auto status = check_keys(root.as_object(), kTopKeys, "response"); !status) {
    return status.error();
  }

  Response response;
  response.id = root.string_at("id");
  auto kind = parse_kind(root);
  if (!kind) return kind.error();
  response.kind = kind.value();
  response.ok = root.bool_at("ok", false);
  response.error_code = parse_error_code(root.string_at("error_code"));
  response.error = root.string_at("error");
  response.retry_after_ms = root.number_at("retry_after_ms");
  response.nf_name = root.string_at("nf_name");
  response.nic = root.string_at("nic");
  response.workload = root.string_at("workload");
  response.substituted = static_cast<std::uint64_t>(root.number_at("substituted"));
  response.patterns = static_cast<std::uint64_t>(root.number_at("patterns"));
  response.greedy_mapper = root.bool_at("greedy_mapper", false);
  response.degraded = root.bool_at("degraded", false);
  response.repaired = root.bool_at("repaired", false);
  response.repair_displaced = static_cast<std::uint64_t>(root.number_at("repair_displaced"));
  response.repair_pinned = static_cast<std::uint64_t>(root.number_at("repair_pinned"));
  response.mean_latency_cycles = root.number_at("mean_latency_cycles");
  response.mean_latency_us = root.number_at("mean_latency_us");
  response.worst_case_cycles = root.number_at("worst_case_cycles");
  response.throughput_pps = root.number_at("throughput_pps");
  response.bottleneck = root.string_at("bottleneck");
  response.emem_cache_hit_rate = root.number_at("emem_cache_hit_rate");
  response.flow_cache_hit_rate = root.number_at("flow_cache_hit_rate");

  if (const Json* classes = root.get("classes"); classes != nullptr && classes->is_array()) {
    static const std::vector<std::string> kClassKeys = {"name", "fraction", "latency_cycles"};
    for (const Json& row : classes->as_array()) {
      if (!row.is_object()) {
        return make_error(ErrorCode::kParse, "\"classes\" rows must be objects");
      }
      if (auto status = check_keys(row.as_object(), kClassKeys, "classes"); !status) {
        return status.error();
      }
      ClassSummary cls;
      cls.name = row.string_at("name");
      cls.fraction = row.number_at("fraction");
      cls.latency_cycles = row.number_at("latency_cycles");
      response.classes.push_back(std::move(cls));
    }
  }
  response.report = root.string_at("report");
  response.breakdown_text = root.string_at("breakdown_text");
  response.partial_text = root.string_at("partial_text");
  response.paths_text = root.string_at("paths_text");
  response.energy_nj_per_packet = root.number_at("energy_nj_per_packet");
  response.energy_watts = root.number_at("energy_watts");
  response.energy_nj_per_packet_total = root.number_at("energy_nj_per_packet_total");

  if (const Json* sweep = root.get("sweep"); sweep != nullptr && sweep->is_array()) {
    static const std::vector<std::string> kSweepKeys = {
        "pps", "seed", "ok", "error", "mean_latency_us", "worst_case_cycles", "bottleneck"};
    for (const Json& row : sweep->as_array()) {
      if (!row.is_object()) {
        return make_error(ErrorCode::kParse, "\"sweep\" rows must be objects");
      }
      if (auto status = check_keys(row.as_object(), kSweepKeys, "sweep"); !status) {
        return status.error();
      }
      SweepPointSummary point;
      point.pps = row.number_at("pps");
      point.seed = parse_u64_string(row.string_at("seed", "0"));
      point.ok = row.bool_at("ok", false);
      point.error = row.string_at("error");
      point.mean_latency_us = row.number_at("mean_latency_us");
      point.worst_case_cycles = row.number_at("worst_case_cycles");
      point.bottleneck = row.string_at("bottleneck");
      response.sweep.push_back(std::move(point));
    }
  }
  response.predicted_cycles = root.number_at("predicted_cycles");
  response.simulated_cycles = root.number_at("simulated_cycles");
  response.rel_err = root.number_at("rel_err");
  response.validation_text = root.string_at("validation_text");
  return response;
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
