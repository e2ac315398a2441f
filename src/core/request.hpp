// The serializable analysis API — one Request/Response pair shared by
// every front end (docs/api.md "Wire protocol").
//
// `clara analyze ...`, `clarad` (the analysis daemon) and the serve
// load generator all speak these two value types: the CLI builds a
// Request from its flags and renders the Response; the daemon reads one
// JSON line per request off a Unix socket and writes one JSON line per
// response. Serialization is deliberately boring — every field is
// always emitted, in a fixed order, with deterministic number
// formatting (common/json json_number) — so serialize→parse→serialize
// is byte-identical and two identical analyses produce two identical
// response lines at any --jobs level. Responses carry no timing or
// cache-visibility fields for the same reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/clara.hpp"

namespace clara::core {

/// Protocol identifier carried as the first field of every request and
/// response line. Bump the suffix on any incompatible schema change;
/// a server rejects lines whose proto it does not speak (kParse).
inline constexpr const char* kServeProtocol = "clara-serve/1";

/// Hard cap on a single wire line accepted by from_json (requests and
/// responses alike). Oversized input is a kParse error before the JSON
/// parser ever touches it, so hostile peers cannot make the server
/// chew on multi-megabyte documents.
inline constexpr std::size_t kMaxWireBytes = 8u << 20;  // 8 MiB

enum class RequestKind : std::uint8_t {
  kAnalyze,   // full pipeline, one prediction
  kSweep,     // analyze + predictor load-sensitivity sweep over sweep_pps
  kRepair,    // analyze healthy, apply fault_plan unit faults, repair
  kValidate,  // analyze + predicted-vs-simulated error attribution
  kHello,     // server greeting line (responses only)
};

constexpr const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kAnalyze: return "analyze";
    case RequestKind::kSweep: return "sweep";
    case RequestKind::kRepair: return "repair";
    case RequestKind::kValidate: return "validate";
    case RequestKind::kHello: return "hello";
  }
  return "?";
}

/// One analysis request. The NF comes either from the built-in corpus
/// (`nf`, an nf::corpus name) or inline as CIR text (`nf_cir`);
/// the workload either from a profile spec (`workload`) or a .cltr file
/// path readable by the server (`trace_file`).
struct Request {
  /// Client-chosen correlation tag, echoed verbatim on the response.
  std::string id;
  RequestKind kind = RequestKind::kAnalyze;
  std::string nf;
  std::string nf_cir;
  std::string nic = "netronome-agilio-cx";
  std::string workload;
  std::string trace_file;
  /// Pipeline configuration. map.time_budget_ms doubles as the
  /// per-request deadline: on expiry the response is degraded=true, not
  /// an error.
  AnalyzeOptions options;
  /// kSweep: offered-load grid for predict_load_sweep.
  std::vector<double> sweep_pps;
  /// kRepair: textual fault::FaultPlan (unit faults only — armed
  /// injection sites are process-global and rejected by the server).
  std::string fault_plan;
  /// Optional response sections (energy model, latency attribution,
  /// partial-offload planning, symbolic path enumeration).
  bool energy = false;
  bool breakdown = false;
  bool partial = false;
  bool paths = false;

  /// One JSON line (no trailing newline), fixed field order.
  [[nodiscard]] std::string to_json() const;
  /// to_json() and its '\n': the line as written to a socket.
  [[nodiscard]] std::string to_line() const;
  /// Strict parse: unknown fields are a kParse error with a
  /// did-you-mean suggestion, a wrong-typed or out-of-range value one
  /// naming its dotted path; a missing/foreign proto is rejected.
  static Result<Request> from_json(std::string_view text);
};

/// One point of a kSweep response.
struct SweepPointSummary {
  double pps = 0.0;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;
  double mean_latency_us = 0.0;
  double worst_case_cycles = 0.0;
  std::string bottleneck;
};

/// One per-packet-class row of the prediction (ClassProfile, minus the
/// flags the CLI never printed).
struct ClassSummary {
  std::string name;
  double fraction = 0.0;
  double latency_cycles = 0.0;
};

/// The response to any Request. `ok` gates the payload: on failure only
/// id/kind/error_code/error are meaningful. All payload fields are
/// deterministic functions of the request (plus the server's NF corpus
/// and profiles), never of timing, scheduling, or cache state.
struct Response {
  std::string id;
  RequestKind kind = RequestKind::kAnalyze;
  bool ok = false;
  ErrorCode error_code = ErrorCode::kUnspecified;
  std::string error;
  /// Server backoff hint, meaningful on kOverloaded rejections (admission
  /// gate, connection limit, draining): how long a well-behaved client
  /// should wait before retrying. 0 = no hint.
  double retry_after_ms = 0.0;

  // -- Analysis summary (analyze/sweep/repair/validate) --------------------
  std::string nf_name;    // function analyzed
  std::string nic;        // profile it was mapped onto
  std::string workload;   // effective profile spec, seed included
  std::uint64_t substituted = 0;  // framework calls replaced
  std::uint64_t patterns = 0;     // idiom loops collapsed
  bool greedy_mapper = false;
  bool degraded = false;   // solver deadline expired; best-effort mapping
  bool repaired = false;   // mapping came from incremental repair
  std::uint64_t repair_displaced = 0;
  std::uint64_t repair_pinned = 0;
  double mean_latency_cycles = 0.0;
  double mean_latency_us = 0.0;
  double worst_case_cycles = 0.0;
  double throughput_pps = 0.0;
  std::string bottleneck;
  double emem_cache_hit_rate = 0.0;
  double flow_cache_hit_rate = 0.0;
  std::vector<ClassSummary> classes;
  std::string report;
  /// Rendered attribution table when the request asked breakdown=true.
  std::string breakdown_text;
  /// Rendered partial-offload plans when the request asked partial=true
  /// (empty when no plan improves on the full offload).
  std::string partial_text;
  /// Rendered symbolic path enumeration when the request asked paths=true.
  std::string paths_text;
  /// Energy model outputs when the request asked energy=true.
  double energy_nj_per_packet = 0.0;
  double energy_watts = 0.0;
  double energy_nj_per_packet_total = 0.0;

  // -- kSweep ---------------------------------------------------------------
  std::vector<SweepPointSummary> sweep;

  // -- kValidate ------------------------------------------------------------
  double predicted_cycles = 0.0;
  double simulated_cycles = 0.0;
  double rel_err = 0.0;
  /// Rendered per-component error table (obs::render_validation).
  std::string validation_text;

  [[nodiscard]] std::string to_json() const;
  /// to_json() and its '\n': the line as written to a socket.
  [[nodiscard]] std::string to_line() const;
  static Result<Response> from_json(std::string_view text);
};

/// An ok=false Response for `request` with the given typed error.
Response error_response(const Request& request, ErrorCode code, std::string message);

}  // namespace clara::core
