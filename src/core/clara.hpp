// Clara — the top-level API (paper Fig. 2 workflow).
//
//   Analyzer clara(lnic::netronome_agilio_cx());
//   auto analysis = clara.analyze(my_nf_cir, *clara.summarize(profile));
//   // analysis.value().prediction.mean_latency_cycles, .report, ...
//
// Every analysis reads its workload as a WorkloadSummary (core/predict):
// summarize(profile) takes it from the analysis cache's summary stage,
// and a miss summarizes the generator's draws without building a trace;
// the trace-taking overloads summarize a concrete trace afresh.
//
// analyze() runs the full pipeline on an *unported* NF:
//   API substitution (framework calls -> virtual calls)
//   -> idiom pattern matching (checksum/scan loops -> vcalls)
//   -> verification
//   -> dataflow-graph construction
//   -> ILP mapping onto the parameterized LNIC (Π, Γ, Θ)
//   -> workload replay and latency/throughput prediction.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cir/function.hpp"
#include "core/predict.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "passes/api_subst.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"
#include "workload/tracegen.hpp"

namespace clara::core {

/// Which pipeline stages analyze() runs — one bitmask replacing the
/// three boolean ablation flags this API grew historically. API
/// substitution, verification, graph construction, and prediction always
/// run; the mask controls the optional transforms and the mapper choice.
struct PipelineStages {
  enum Stage : std::uint32_t {
    /// Idiom pattern matching — checksum/scan byte loops collapse to
    /// vcalls (off: loops map as general NPU code).
    kPatterns = 1u << 0,
    /// Constant folding / DCE / CFG cleanup before analysis (what a real
    /// front-end's -O pipeline would already have done).
    kOptimize = 1u << 1,
    /// The ILP mapper (off: the greedy baseline — ablation).
    kIlp = 1u << 2,
  };

  std::uint32_t mask = kPatterns | kOptimize | kIlp;

  static constexpr PipelineStages full() { return {kPatterns | kOptimize | kIlp}; }
  static constexpr PipelineStages no_ilp() { return {kPatterns | kOptimize}; }
  static constexpr PipelineStages no_patterns() { return {kOptimize | kIlp}; }
  /// Nothing optional: raw IR, greedy mapping.
  static constexpr PipelineStages raw() { return {0}; }

  [[nodiscard]] constexpr bool patterns() const { return (mask & kPatterns) != 0; }
  [[nodiscard]] constexpr bool optimize() const { return (mask & kOptimize) != 0; }
  [[nodiscard]] constexpr bool ilp() const { return (mask & kIlp) != 0; }

  constexpr PipelineStages& set(Stage stage, bool on) {
    mask = on ? (mask | stage) : (mask & ~static_cast<std::uint32_t>(stage));
    return *this;
  }

  friend constexpr bool operator==(const PipelineStages&, const PipelineStages&) = default;
};

struct AnalyzeOptions {
  PipelineStages stages = PipelineStages::full();
  /// Treat calls Clara cannot recognize as an error (default) or ignore
  /// them (costing them zero).
  bool fail_on_unknown_calls = true;
  /// Consult/populate the process-wide analysis cache (core/cache). Also
  /// requires the cache itself to be enabled (CacheConfig::enabled).
  bool use_cache = true;
  mapping::MapOptions map;
  PredictOptions predict;
};

struct Analysis {
  /// The NF after substitution and pattern collapse (what was mapped).
  cir::Function lowered;
  /// The dataflow graph the mapping was solved and priced against,
  /// shared with the analysis cache entry that owns it.
  std::shared_ptr<const passes::DataflowGraph> graph;
  passes::SubstitutionReport substitution;
  passes::PatternReport patterns;
  passes::OptimizeReport optimizations;
  mapping::Mapping mapping;
  Prediction prediction;
  /// Human-readable porting plan (paper §6 "offloading hints").
  std::string report;
  /// Mirrors mapping.degraded: the solver's time budget expired and the
  /// mapping is best-effort, not certified optimal.
  bool degraded = false;
  /// Mirrors mapping.repaired: this mapping came from incremental repair
  /// after resource loss (Analyzer::repair), not a cold solve.
  bool repaired = false;
};

/// Co-resident interference analysis result (paper §3.5): the two
/// analyses, each degraded by the other's presence.
struct CoResident {
  Analysis first;
  Analysis second;
};

class Analyzer {
 public:
  explicit Analyzer(lnic::NicProfile profile);
  // The Mapper points at profile_, so an Analyzer stays where it was built.
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// The summary of the trace `workload` generates, for this NIC and
  /// options.predict.payload_buckets. Looked up in (and added to) the
  /// analysis cache's summary stage when options.use_cache allows, so a
  /// hit draws nothing; a miss summarizes the generator's draws as they
  /// are made, building no trace. When `generated` is given, a miss also
  /// collects the packets there in the same pass and a hit leaves it
  /// untouched, so a caller that also needs the packets (validation)
  /// generates them again only on a hit.
  [[nodiscard]] std::shared_ptr<const WorkloadSummary> summarize(
      const workload::WorkloadProfile& workload, const AnalyzeOptions& options = {},
      std::optional<workload::Trace>* generated = nullptr) const;

  /// Analyzes an unported NF against a summarized workload, which must
  /// come from summarize() on this NIC with the same payload buckets.
  /// The offered rate is taken from the workload's profile unless
  /// options.map.pps overrides.
  [[nodiscard]] Result<Analysis> analyze(const cir::Function& nf, const WorkloadSummary& workload,
                                         const AnalyzeOptions& options = {}) const;
  /// Same, against a concrete trace (summarized here, never memoized).
  [[nodiscard]] Result<Analysis> analyze(const cir::Function& nf, const workload::Trace& trace,
                                         const AnalyzeOptions& options = {}) const;

  /// Degraded-mode re-analysis after resource loss. Re-runs the lowering
  /// and graph stages against this analyzer's — typically faulted —
  /// profile (cache-warm where keys still match), then incrementally
  /// repairs `previous`'s mapping via mapping::Mapper::repair instead of
  /// solving cold: assignments to surviving resources stay pinned and
  /// only displaced nodes/states are re-solved. Without the ILP stage the
  /// greedy mapper re-places every node, and repair_displaced counts them
  /// all. The repaired mapping is NOT inserted into the analysis cache
  /// (it is pinned to the previous assignment, not the model's optimum).
  /// `previous` should come from analyze() on the healthy profile with
  /// the same NF and stages. Unit faults leave the flow cache alone, so
  /// the healthy analysis's workload summary serves here too.
  [[nodiscard]] Result<Analysis> repair(const cir::Function& nf, const WorkloadSummary& workload,
                                        const Analysis& previous,
                                        const AnalyzeOptions& options = {}) const;
  [[nodiscard]] Result<Analysis> repair(const cir::Function& nf, const workload::Trace& trace,
                                        const Analysis& previous,
                                        const AnalyzeOptions& options = {}) const;

  /// Co-resident interference analysis (paper §3.5): each NF gets half
  /// the NIC's compute parallelism and sees the other's working set as
  /// EMEM cache pressure.
  [[nodiscard]] Result<CoResident> coresident(const cir::Function& nf_a, const WorkloadSummary& workload_a,
                                              const cir::Function& nf_b, const WorkloadSummary& workload_b,
                                              const AnalyzeOptions& options = {}) const;
  [[nodiscard]] Result<CoResident> coresident(const cir::Function& nf_a, const workload::Trace& trace_a,
                                              const cir::Function& nf_b, const workload::Trace& trace_b,
                                              const AnalyzeOptions& options = {}) const;

  [[nodiscard]] const lnic::NicProfile& profile() const { return profile_; }

  /// Content digest of the profile (cache-key component, computed once).
  [[nodiscard]] std::uint64_t profile_hash() const { return profile_hash_; }

  /// The NIC's pools and price table, built once: every analysis, repair,
  /// load sweep and energy or partial-offload plan on this analyzer maps
  /// and prices against it. Immutable, so concurrent analyses share it.
  [[nodiscard]] const mapping::Mapper& mapper() const { return mapper_; }

 private:
  lnic::NicProfile profile_;
  std::uint64_t profile_hash_ = 0;
  mapping::Mapper mapper_;
};

}  // namespace clara::core
