#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "common/strings.hpp"
#include "core/energy.hpp"
#include "core/partial.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"
#include "nf/corpus.hpp"
#include "obs/accuracy.hpp"
#include "obs/breakdown.hpp"
#include "obs/metrics.hpp"
#include "passes/symexec.hpp"
#include "workload/profile.hpp"
#include "workload/trace_io.hpp"

namespace clara::serve {

namespace {

using core::Request;
using core::RequestKind;
using core::Response;

/// Default workload spec, identical to the CLI's (seed included, so two
/// servers given the same request generate the same trace).
constexpr const char* kDefaultWorkload =
    "tcp=0.8 flows=10000 payload=300 pps=60000 packets=20000";

Result<cir::Function> resolve_nf(const Request& request) {
  if (!request.nf_cir.empty()) {
    auto mod = cir::parse_module(request.nf_cir);
    if (!mod) return mod.error();
    if (auto status = cir::verify(mod.value()); !status) return status.error();
    if (mod.value().functions.empty()) {
      return make_error(ErrorCode::kParse, "nf_cir module has no functions");
    }
    return std::move(mod.value().functions.front());
  }
  const nf::NfEntry* entry = nf::find_nf(request.nf);
  if (entry == nullptr) {
    std::string message = strf("unknown NF \"%s\"", request.nf.c_str());
    std::vector<std::string> names;
    for (const auto& known : nf::corpus()) names.emplace_back(known.name);
    const std::string suggestion = closest_match(request.nf, names);
    if (!suggestion.empty()) message += strf(" (did you mean \"%s\"?)", suggestion.c_str());
    return make_error(ErrorCode::kParse, std::move(message));
  }
  return entry->build();
}

/// A request's workload: the summary every kind analyzes against, and
/// for validate the packets the simulator replays.
struct Workload {
  std::shared_ptr<const core::WorkloadSummary> summary;
  std::shared_ptr<const workload::Trace> trace;
};

/// Longest trace the validate memo keeps (2 MiB of packets), so no
/// request can pin a large one: the Zipf memo's bound.
constexpr std::uint64_t kMemoPackets = 65'536;

/// The last trace generated for a validate, by its profile's digest.
/// Traces are immutable and shared, so every worker reads one copy; a
/// repeated validate, whose summary hits, replays it instead of
/// generating its packets again.
class TraceMemo {
 public:
  std::shared_ptr<const workload::Trace> find(std::uint64_t digest) const {
    const std::lock_guard lock(mutex_);
    return digest == digest_ ? trace_ : nullptr;
  }

  void keep(std::uint64_t digest, std::shared_ptr<const workload::Trace> trace) {
    if (trace->size() > kMemoPackets) return;
    const std::lock_guard lock(mutex_);
    digest_ = digest;
    trace_ = std::move(trace);
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t digest_ = 0;
  std::shared_ptr<const workload::Trace> trace_;
};

TraceMemo& trace_memo() {
  static TraceMemo memo;
  return memo;
}

Result<Workload> resolve_workload(const Request& request, const core::Analyzer& analyzer) {
  Workload out;
  if (!request.trace_file.empty()) {
    auto trace = workload::read_trace(request.trace_file);
    if (!trace) return trace.error();
    // A file can change under the same path, so its summary is taken
    // afresh and never memoized.
    out.summary = std::make_shared<const core::WorkloadSummary>(core::summarize(
        trace.value(), analyzer.profile(), request.options.predict.payload_buckets));
    if (request.kind == RequestKind::kValidate) {
      out.trace = std::make_shared<const workload::Trace>(std::move(trace).value());
    }
    return out;
  }
  const std::string spec = request.workload.empty() ? kDefaultWorkload : request.workload;
  auto profile = workload::parse_profile(spec);
  if (!profile) return profile.error();
  if (request.kind != RequestKind::kValidate) {
    out.summary = analyzer.summarize(profile.value(), request.options);
    return out;
  }
  // Validate replays the packets too: take the trace a summary miss
  // generated; on a hit, the memo's, or generate one when it holds
  // another spec's. Either way the memo keeps the trace generated here.
  std::optional<workload::Trace> generated;
  out.summary = analyzer.summarize(profile.value(), request.options, &generated);
  const std::uint64_t digest = profile.value().digest();
  if (!generated) {
    out.trace = trace_memo().find(digest);
    if (out.trace) return out;
    generated = workload::generate_trace(profile.value());
  }
  out.trace = std::make_shared<const workload::Trace>(std::move(*generated));
  trace_memo().keep(digest, out.trace);
  return out;
}

/// Copies the deterministic analysis summary (and the requested extra
/// sections) into the response. Shared by every kind: a sweep/repair/
/// validate response carries its base analysis alongside the
/// kind-specific payload.
void fill_analysis(Response& response, const Request& request, const core::Analyzer& analyzer,
                   const cir::Function& fn, const core::WorkloadSummary& workload,
                   const core::Analysis& analysis) {
  response.nf_name = fn.name;
  response.nic = analyzer.profile().name;
  response.workload = workload.profile.serialize();
  response.substituted = analysis.substitution.substituted;
  response.patterns = analysis.patterns.total();
  response.greedy_mapper = analysis.mapping.greedy;
  response.degraded = analysis.degraded;
  response.repaired = analysis.repaired;
  response.repair_displaced = analysis.mapping.repair_displaced;
  if (analysis.repaired) {
    response.repair_pinned =
        analysis.mapping.node_pool.size() - analysis.mapping.repair_displaced;
  }
  response.mean_latency_cycles = analysis.prediction.mean_latency_cycles;
  response.mean_latency_us = analysis.prediction.mean_latency_us;
  response.worst_case_cycles = analysis.prediction.worst_case_cycles;
  response.throughput_pps = analysis.prediction.throughput_pps;
  response.bottleneck = analysis.prediction.bottleneck;
  response.emem_cache_hit_rate = analysis.prediction.emem_cache_hit_rate;
  response.flow_cache_hit_rate = analysis.prediction.flow_cache_hit_rate;
  response.classes.clear();
  for (const auto& cls : analysis.prediction.classes) {
    response.classes.push_back({cls.name, cls.fraction, cls.latency_cycles});
  }
  response.report = analysis.report;
  if (request.breakdown) {
    response.breakdown_text = obs::render_breakdown(analysis.prediction.breakdown);
  }
  if (request.energy || request.partial) {
    const passes::DataflowGraph& graph = *analysis.graph;
    const mapping::Mapper mapper(analyzer.profile());
    if (request.energy) {
      const auto energy =
          core::predict_energy(analysis.lowered, graph, analysis.mapping, mapper, workload);
      response.energy_nj_per_packet = energy.nj_per_packet;
      response.energy_watts = energy.watts_at_rate;
      response.energy_nj_per_packet_total = energy.nj_per_packet_total;
    }
    if (request.partial) {
      const auto partial =
          core::plan_partial_offload(analysis.lowered, graph, analysis.mapping, mapper, workload);
      if (partial) {
        response.partial_text =
            "partial-offload plans:\n" + core::describe_partial(partial.value(), graph);
      }
    }
  }
  if (request.paths) {
    const auto paths = passes::enumerate_paths(analysis.lowered);
    response.paths_text = strf("NF behaviours (%zu paths%s):\n", paths.paths.size(),
                               paths.complete ? "" : ", truncated");
    for (const auto& path : paths.paths) {
      response.paths_text += "  " + path.describe(analysis.lowered) + "\n";
    }
  }
}

Response handle_analyze(const Request& request, const core::Analyzer& analyzer,
                        const cir::Function& fn, const core::WorkloadSummary& workload) {
  auto analysis = analyzer.analyze(fn, workload, request.options);
  if (!analysis) {
    return core::error_response(request, analysis.error().code, analysis.error().message);
  }
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.ok = true;
  fill_analysis(response, request, analyzer, fn, workload, analysis.value());
  return response;
}

Response handle_sweep(const Request& request, const core::Analyzer& analyzer,
                      const cir::Function& fn, const core::WorkloadSummary& workload) {
  if (request.sweep_pps.empty()) {
    return core::error_response(request, ErrorCode::kParse,
                                "sweep request needs a non-empty sweep_pps grid");
  }
  for (const double pps : request.sweep_pps) {  // each becomes a spec's pps
    if (!(workload::kMinPps <= pps && pps <= workload::kMaxPps)) {
      return core::error_response(request, ErrorCode::kParse,
                                  strf("sweep_pps point %g must be a number in [%g, %g]", pps,
                                       workload::kMinPps, workload::kMaxPps));
    }
  }
  auto analysis = analyzer.analyze(fn, workload, request.options);
  if (!analysis) {
    return core::error_response(request, analysis.error().code, analysis.error().message);
  }
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.ok = true;
  fill_analysis(response, request, analyzer, fn, workload, analysis.value());
  const auto sweep = core::predict_load_sweep(analyzer, analysis.value(), workload,
                                              request.sweep_pps, request.options);
  for (const auto& point : sweep) {
    core::SweepPointSummary summary;
    summary.pps = point.pps;
    summary.seed = point.seed;
    summary.ok = point.ok;
    summary.error = point.error;
    if (point.ok) {
      summary.mean_latency_us = point.prediction.mean_latency_us;
      summary.worst_case_cycles = point.prediction.worst_case_cycles;
      summary.bottleneck = point.prediction.bottleneck;
    }
    response.sweep.push_back(std::move(summary));
  }
  return response;
}

Response handle_repair(const Request& request, const core::Analyzer& analyzer,
                       const cir::Function& fn, const core::WorkloadSummary& workload) {
  auto plan = fault::FaultPlan::parse(request.fault_plan);
  if (!plan) return core::error_response(request, plan.error().code, plan.error().message);
  if (!plan.value().sites.empty()) {
    return core::error_response(
        request, ErrorCode::kParse,
        "repair requests accept unit faults only (armed injection sites are process-global; "
        "install those via the CLI's --fault-plan)");
  }
  if (plan.value().failed_units.empty() && plan.value().derated_units.empty()) {
    return core::error_response(request, ErrorCode::kParse,
                                "repair request's fault_plan names no unit faults");
  }

  auto healthy = analyzer.analyze(fn, workload, request.options);
  if (!healthy) {
    return core::error_response(request, healthy.error().code, healthy.error().message);
  }

  lnic::NicProfile faulted_profile = analyzer.profile();
  if (auto applied = fault::apply_to_profile(plan.value(), faulted_profile); !applied) {
    return core::error_response(request, applied.error().code, applied.error().message);
  }
  const core::Analyzer degraded_analyzer(std::move(faulted_profile));
  auto repaired = degraded_analyzer.repair(fn, workload, healthy.value(), request.options);
  if (!repaired) {
    return core::error_response(request, repaired.error().code, repaired.error().message);
  }
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.ok = true;
  fill_analysis(response, request, degraded_analyzer, fn, workload, repaired.value());
  return response;
}

Response handle_validate(const Request& request, const core::Analyzer& analyzer,
                         const cir::Function& fn, const core::WorkloadSummary& workload,
                         const workload::Trace& trace) {
  auto analysis = analyzer.analyze(fn, workload, request.options);
  if (!analysis) {
    return core::error_response(request, analysis.error().code, analysis.error().message);
  }
  obs::ValidationScenario scenario;
  scenario.nf = request.nf.empty() ? fn.name : request.nf;
  scenario.variant = "serve";
  scenario.workload = workload.profile.serialize();
  auto validated = obs::validate_prediction(analyzer, scenario, analysis.value(), trace);
  if (!validated) {
    return core::error_response(request, validated.error().code, validated.error().message);
  }
  Response response;
  response.id = request.id;
  response.kind = request.kind;
  response.ok = true;
  fill_analysis(response, request, analyzer, fn, workload, analysis.value());
  response.predicted_cycles = validated.value().predicted_cycles;
  response.simulated_cycles = validated.value().simulated_cycles;
  response.rel_err = validated.value().rel_err;
  response.validation_text = obs::render_validation(validated.value());
  return response;
}

}  // namespace

Service::Service(ServiceOptions options) : options_(options), gate_(options.max_inflight) {
  for (auto& profile : lnic::all_profiles()) analyzers_.emplace_back(std::move(profile));
}

Response Service::handle(const Request& request) {
  const std::string kind_label = std::string("kind=") + to_string(request.kind);
  if (!gate_.try_acquire()) {
    obs::metrics().counter("serve/rejected", kind_label).inc();
    Response rejected = core::error_response(
        request, ErrorCode::kOverloaded,
        strf("server at capacity (%zu requests in flight); retry", options_.max_inflight));
    rejected.retry_after_ms = options_.retry_after_ms;
    return rejected;
  }
  const auto t0 = std::chrono::steady_clock::now();
  Response response = dispatch(request);
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
  gate_.release();

  auto& registry = obs::metrics();
  registry.counter("serve/requests", kind_label).inc();
  registry.histogram("serve/latency_us", kind_label).observe(us);
  if (!response.ok) {
    registry.counter("serve/errors", std::string("code=") + to_string(response.error_code)).inc();
  }
  return response;
}

Response Service::dispatch(const Request& request) const {
  if (request.kind == RequestKind::kHello) {
    return core::error_response(request, ErrorCode::kParse,
                                "\"hello\" is a server greeting, not a request kind");
  }
  auto fn = resolve_nf(request);
  if (!fn) return core::error_response(request, fn.error().code, fn.error().message);
  const auto analyzer = std::find_if(analyzers_.begin(), analyzers_.end(), [&](const auto& a) {
    return a.profile().name == request.nic;
  });
  if (analyzer == analyzers_.end()) {
    return core::error_response(request, ErrorCode::kParse,
                                strf("unknown NIC profile \"%s\"", request.nic.c_str()));
  }
  auto resolved = resolve_workload(request, *analyzer);
  if (!resolved) {
    return core::error_response(request, resolved.error().code, resolved.error().message);
  }

  const core::WorkloadSummary& workload = *resolved.value().summary;
  switch (request.kind) {
    case RequestKind::kAnalyze:
      return handle_analyze(request, *analyzer, fn.value(), workload);
    case RequestKind::kSweep:
      return handle_sweep(request, *analyzer, fn.value(), workload);
    case RequestKind::kRepair:
      return handle_repair(request, *analyzer, fn.value(), workload);
    case RequestKind::kValidate:
      return handle_validate(request, *analyzer, fn.value(), workload, *resolved.value().trace);
    case RequestKind::kHello: break;  // handled above
  }
  return core::error_response(request, ErrorCode::kInternal, "unhandled request kind");
}

}  // namespace clara::serve
