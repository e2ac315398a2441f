#include "core/clara.hpp"

#include <sstream>

#include "cir/hash.hpp"
#include "cir/verify.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "passes/dataflow.hpp"

namespace clara::core {

namespace {

/// Every analysis failure exits through here so the flight recorder's
/// last few thousand events (cache lookups, solver waves, pool activity)
/// land on disk next to the error message. auto_dump throttles itself to
/// once per process.
Error dump_on_failure(Error error) {
  obs::recorder().auto_dump(std::string("analysis_") + to_string(error.code));
  return error;
}

/// What analyze() and repair() share before they map: the lowered NF,
/// its dataflow graph, and the options the mapper runs under.
struct Prefix {
  Analysis analysis;            // the lowering results and graph filled in
  std::uint64_t graph_key = 0;  // 0 when the cache is bypassed
  mapping::MapOptions map;      // options.map, at the workload's offered rate
};

Result<Prefix> lower_and_build_graph(const cir::Function& nf, const WorkloadSummary& workload,
                                     std::uint64_t profile_hash, const AnalyzeOptions& options,
                                     bool use_cache) {
  auto& cache = analysis_cache();

  // Stage 1: lowering (substitution -> patterns -> optimize -> verify).
  // Cached on the *input* function's content plus the stage toggles, so
  // it is profile-independent: repair() on a faulted profile hits the
  // entry the healthy analysis made. Only successful lowerings are
  // cached; the unknown-calls policy is applied after retrieval so a
  // cached entry serves both policies.
  std::uint64_t lkey = 0;
  std::shared_ptr<const LoweredEntry> lowered;
  if (use_cache) {
    lkey = lowered_key(cir::hash_function(nf), options.stages.patterns(), options.stages.optimize());
    lowered = cache.find_lowered(lkey);
  }
  if (!lowered) {
    auto entry = std::make_shared<LoweredEntry>();
    entry->fn = nf;  // operate on a copy; the caller's NF is untouched
    entry->substitution = passes::substitute_framework_apis(entry->fn);
    if (options.stages.patterns()) {
      entry->patterns = passes::collapse_packet_loops(entry->fn);
    }
    if (options.stages.optimize()) {
      entry->optimizations = passes::optimize(entry->fn);
    }
    {
      CLARA_TRACE_SCOPE("cir/verify");
      if (auto status = cir::verify(entry->fn); !status) {
        return dump_on_failure(make_error(
            ErrorCode::kVerify, "lowered NF failed verification: " + status.error().message));
      }
    }
    entry->lowered_hash = cir::hash_function(entry->fn);
    if (use_cache) cache.insert_lowered(lkey, entry);
    lowered = std::move(entry);
  }

  if (options.fail_on_unknown_calls && !lowered->substitution.unknown_calls.empty()) {
    std::ostringstream os;
    os << "unrecognized calls in '" << nf.name << "':";
    for (const auto& name : lowered->substitution.unknown_calls) os << " " << name;
    return dump_on_failure(make_error(ErrorCode::kUnknownCall, os.str()));
  }

  Prefix prefix;
  prefix.analysis.lowered = lowered->fn;
  prefix.analysis.substitution = lowered->substitution;
  prefix.analysis.patterns = lowered->patterns;
  prefix.analysis.optimizations = lowered->optimizations;

  // Stage 2: dataflow graph. Keyed on the *lowered* function's hash so
  // holders of a lowered function (the load-sweep driver) can address
  // the same entry without re-running stage 1, and on the profile's
  // hash (offline/derate state included) so a faulted profile never
  // aliases the healthy profile's entry.
  const passes::CostHints& hints = workload.hints;
  std::shared_ptr<const GraphEntry> graph;
  if (use_cache) {
    prefix.graph_key = graph_key(lowered->lowered_hash, hash_hints(hints), profile_hash);
    graph = cache.find_graph(prefix.graph_key);
  }
  if (!graph) {
    auto entry = std::make_shared<GraphEntry>();
    entry->lowered = lowered;  // keep-alive: the graph points into this fn
    entry->graph = passes::DataflowGraph::build(entry->lowered->fn, hints);
    if (use_cache) cache.insert_graph(prefix.graph_key, entry);
    graph = std::move(entry);
  }
  prefix.analysis.graph = std::shared_ptr<const passes::DataflowGraph>(graph, &graph->graph);

  prefix.map = options.map;
  if (prefix.map.pps == mapping::MapOptions{}.pps && workload.profile.pps > 0.0) {
    prefix.map.pps = workload.profile.pps;
  }
  return prefix;
}

/// Prices the mapped analysis, whose report the caller has filled in.
Result<Analysis> finish(Analysis analysis, const passes::DataflowGraph& graph,
                        const mapping::Mapper& mapper, const WorkloadSummary& workload,
                        const PredictOptions& options) {
  analysis.degraded = analysis.mapping.degraded;
  analysis.repaired = analysis.mapping.repaired;
  auto prediction = predict(analysis.lowered, graph, analysis.mapping, mapper, workload, options);
  if (!prediction) return dump_on_failure(prediction.error());
  analysis.prediction = std::move(prediction).value();
  return analysis;
}

}  // namespace

Analyzer::Analyzer(lnic::NicProfile profile)
    : profile_(std::move(profile)), profile_hash_(hash_profile(profile_)), mapper_(profile_) {}

std::shared_ptr<const WorkloadSummary> Analyzer::summarize(const workload::WorkloadProfile& workload,
                                                           const AnalyzeOptions& options,
                                                           std::optional<workload::Trace>* generated) const {
  auto& cache = analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  const std::size_t buckets = options.predict.payload_buckets;
  std::uint64_t key = 0;
  if (use_cache) {
    key = summary_key(workload, buckets, flow_cache_capacity(profile_));
    if (auto hit = cache.find_summary(key)) return hit;
  }
  auto trace = workload::generate_trace(workload);
  auto entry = std::make_shared<const WorkloadSummary>(core::summarize(trace, profile_, buckets));
  if (use_cache) cache.insert_summary(key, entry);
  if (generated != nullptr) *generated = std::move(trace);
  return entry;
}

Result<Analysis> Analyzer::analyze(const cir::Function& nf, const WorkloadSummary& workload,
                                   const AnalyzeOptions& options) const {
  CLARA_TRACE_SCOPE("core/analyze");
  auto& cache = analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  auto prefix = lower_and_build_graph(nf, workload, profile_hash_, options, use_cache);
  if (!prefix) return prefix.error();
  Prefix& p = prefix.value();
  const passes::DataflowGraph& graph = *p.analysis.graph;
  const passes::CostHints& hints = workload.hints;

  // Stage 3: the mapping solve — the expensive stage the cache exists
  // for. A hit skips the ILP entirely.
  std::uint64_t mkey = 0;
  std::shared_ptr<const MappingEntry> mapping_entry;
  if (use_cache) {
    mkey = mapping_key(p.graph_key, p.map, options.stages.ilp());
    mapping_entry = cache.find_mapping(mkey);
  }
  if (!mapping_entry) {
    auto mapped = options.stages.ilp() ? mapper_.map(graph, hints, p.map)
                                       : mapper_.map_greedy(graph, hints, p.map);
    if (!mapped) return dump_on_failure(mapped.error());
    auto entry = std::make_shared<MappingEntry>();
    entry->mapping = std::move(mapped).value();
    entry->report = mapping::describe_mapping(entry->mapping, graph, mapper_, p.analysis.lowered);
    if (use_cache) cache.insert_mapping(mkey, entry);
    mapping_entry = std::move(entry);
  }
  p.analysis.mapping = mapping_entry->mapping;
  p.analysis.report = mapping_entry->report;
  return finish(std::move(p.analysis), graph, mapper_, workload, options.predict);
}

Result<Analysis> Analyzer::analyze(const cir::Function& nf, const workload::Trace& trace,
                                   const AnalyzeOptions& options) const {
  return analyze(nf, core::summarize(trace, profile_, options.predict.payload_buckets), options);
}

Result<Analysis> Analyzer::repair(const cir::Function& nf, const WorkloadSummary& workload,
                                  const Analysis& previous, const AnalyzeOptions& options) const {
  CLARA_TRACE_SCOPE("core/repair");
  auto& cache = analysis_cache();
  const bool use_cache = options.use_cache && cache.enabled();
  auto prefix = lower_and_build_graph(nf, workload, profile_hash_, options, use_cache);
  if (!prefix) return prefix.error();
  Prefix& p = prefix.value();
  const passes::DataflowGraph& graph = *p.analysis.graph;

  // Incremental repair instead of a cold solve, deliberately NOT inserted into the mapping cache.
  auto repaired = options.stages.ilp()
                      ? mapper_.repair(graph, workload.hints, previous.mapping, p.map)
                      : mapper_.map_greedy(graph, workload.hints, p.map);
  if (!repaired) return dump_on_failure(repaired.error());
  p.analysis.mapping = std::move(repaired).value();
  if (!options.stages.ilp()) {
    // A greedy re-solve is still a repair, and it re-places every node.
    p.analysis.mapping.repaired = true;
    p.analysis.mapping.repair_displaced = p.analysis.mapping.node_pool.size();
  }
  p.analysis.report = mapping::describe_mapping(p.analysis.mapping, graph, mapper_, p.analysis.lowered);
  return finish(std::move(p.analysis), graph, mapper_, workload, options.predict);
}

Result<Analysis> Analyzer::repair(const cir::Function& nf, const workload::Trace& trace,
                                  const Analysis& previous, const AnalyzeOptions& options) const {
  return repair(nf, core::summarize(trace, profile_, options.predict.payload_buckets), previous, options);
}

Result<CoResident> Analyzer::coresident(const cir::Function& nf_a, const WorkloadSummary& workload_a,
                                        const cir::Function& nf_b, const WorkloadSummary& workload_b,
                                        const AnalyzeOptions& options) const {
  // Solo pass to obtain mappings and working sets. The shared pass below
  // re-analyzes under interference options that only perturb prediction,
  // so its lowering/graph/mapping stages all hit the cache warm.
  auto solo_a = analyze(nf_a, workload_a, options);
  if (!solo_a) return solo_a.error();
  auto solo_b = analyze(nf_b, workload_b, options);
  if (!solo_b) return solo_b.error();

  const double pressure_a =
      emem_working_set(solo_a.value().lowered, solo_a.value().mapping, profile_, workload_a).bytes;
  const double pressure_b =
      emem_working_set(solo_b.value().lowered, solo_b.value().mapping, profile_, workload_b).bytes;

  AnalyzeOptions opts_a = options;
  opts_a.predict.nic_share = 0.5;
  opts_a.predict.foreign_cache_pressure_bytes = pressure_b;
  AnalyzeOptions opts_b = options;
  opts_b.predict.nic_share = 0.5;
  opts_b.predict.foreign_cache_pressure_bytes = pressure_a;

  auto shared_a = analyze(nf_a, workload_a, opts_a);
  if (!shared_a) return shared_a.error();
  auto shared_b = analyze(nf_b, workload_b, opts_b);
  if (!shared_b) return shared_b.error();

  CoResident out;
  out.first = std::move(shared_a).value();
  out.second = std::move(shared_b).value();
  return out;
}

Result<CoResident> Analyzer::coresident(const cir::Function& nf_a, const workload::Trace& trace_a,
                                        const cir::Function& nf_b, const workload::Trace& trace_b,
                                        const AnalyzeOptions& options) const {
  const std::size_t buckets = options.predict.payload_buckets;
  return coresident(nf_a, core::summarize(trace_a, profile_, buckets), nf_b,
                    core::summarize(trace_b, profile_, buckets), options);
}

}  // namespace clara::core
