// Performance prediction — paper §3.5.
//
// Given a mapped NF and a workload, predict per-packet latency and
// idealized throughput. Clara does not execute a ported program; it
// replays the workload over the *mapping*:
//
//   1. the trace is collapsed into packet equivalence classes (protocol,
//      SYN, flow novelty, payload bucket) — the per-packet-type profiles
//      the paper describes ("TCP SYN packets experience higher latency,
//      but the following packets will hit the flow cache"). summarize()
//      does this in one pass and keeps the result as a WorkloadSummary,
//      which is all prediction reads of a workload;
//   2. one representative packet per class is pushed through the CIR
//      interpreter against a workload model (tables answer hit/miss by
//      flow novelty), yielding block counts and vcall arguments;
//   3. the trace is priced against the mapping: instruction mixes and
//      vcall service curves on the assigned units, state accesses at the
//      placed regions — with the EMEM cache modeled by an estimated hit
//      rate (working set vs. cache capacity) rather than exact contents;
//   4. datapath constants (ingress DMA/spill, hubs, egress) and a
//      queueing term per shared unit (M/D/1-style) complete the number.
//
// The deliberate abstractions in (3)-(4) — hit-rate estimates, averaged
// NUMA weights, open-form queueing — are Clara's model error relative to
// the exact simulator, mirroring the paper's predictor-vs-hardware gap.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "mapping/mapping.hpp"
#include "obs/breakdown.hpp"
#include "workload/tracegen.hpp"

namespace clara::core {

/// A packet equivalence class of a trace, with the first packet that
/// fell into it as the representative the interpreter replays.
struct PacketClass {
  std::uint8_t proto = 6;
  bool syn = false;
  bool new_flow = false;
  std::uint32_t bucket = 0;
  std::uint64_t count = 0;
  double payload_sum = 0.0;
  workload::PacketMeta rep;

  [[nodiscard]] double payload() const {
    return count > 0 ? payload_sum / static_cast<double>(count) : 0.0;
  }
  [[nodiscard]] double frame_len() const { return payload() + (proto == 6 ? 54.0 : 42.0); }
  [[nodiscard]] std::string name() const;
};

/// Everything prediction reads of a workload (paper §3.5: Clara prices
/// per-packet-type profiles, not individual packets). The hints depend
/// on the NIC's flow-cache capacity and the classes on the payload
/// bucket count, so a summary records both and serves only analyses
/// that agree on them.
struct WorkloadSummary {
  /// The trace's profile: the offered rate, and the spec a response echoes.
  workload::WorkloadProfile profile;
  std::uint64_t packets = 0;
  double mean_payload = 0.0;
  std::uint32_t distinct_flows = 0;
  passes::CostHints hints;
  std::vector<PacketClass> classes;  // ascending class key
  double flow_cache_capacity = 0.0;
  std::size_t payload_buckets = 0;
};

/// A packet equivalence class with its predicted latency.
struct ClassProfile {
  std::string name;
  double fraction = 0.0;       // of trace packets
  double payload_len = 0.0;    // representative payload bytes
  double latency_cycles = 0.0; // predicted end-to-end latency
  bool tcp = false;
  bool syn = false;
  bool new_flow = false;
};

struct UnitLoad {
  std::string pool;
  double utilization = 0.0;     // of the pool's aggregate capacity
  double queue_wait_cycles = 0.0;
};

struct Prediction {
  double mean_latency_cycles = 0.0;
  double mean_latency_us = 0.0;
  /// Conservative worst-case latency (WCET-flavored, §3.5's pointer to
  /// the real-time literature): the slowest packet class priced with
  /// every cache access missing. A sound upper bound for the simulator's
  /// tail latency at non-saturating loads.
  double worst_case_cycles = 0.0;
  /// Idealized throughput: the offered rate at which the bottleneck pool
  /// saturates (paper: "idealized throughput estimations").
  double throughput_pps = 0.0;
  std::string bottleneck;
  std::vector<ClassProfile> classes;
  std::vector<UnitLoad> loads;
  /// Estimated hit rates the model used (exposed for ablation study).
  double emem_cache_hit_rate = 0.0;
  double flow_cache_hit_rate = 0.0;
  /// Analytic per-packet latency attribution. The components sum to
  /// mean_latency_cycles exactly (each term of the cost model is charged
  /// to exactly one component), so it lines up with the simulator's
  /// measured RunStats::breakdown for side-by-side comparison.
  obs::BreakdownMeans breakdown;
};

struct PredictOptions {
  /// Payload-size buckets for class formation.
  std::size_t payload_buckets = 8;
  /// Disables the EMEM cache hit-rate model (every access at full DRAM
  /// latency) — ablation knob.
  bool model_emem_cache = true;
  /// Disables queueing terms — ablation knob.
  bool model_queueing = true;
  /// Interference: fraction of the NIC this NF owns (1.0 = whole NIC);
  /// paper §3.5 "slice the LNIC to model half of the NIC".
  double nic_share = 1.0;
  /// Interference: extra EMEM-cache pressure from co-resident NFs, in
  /// bytes of competing working set.
  double foreign_cache_pressure_bytes = 0.0;
};

/// Predicts performance of a mapped NF on a summarized workload. The
/// function must already be API-substituted and verified (the Analyzer
/// facade does this), and `workload` must be summarized for the mapper's
/// NIC with options.payload_buckets.
Result<Prediction> predict(const cir::Function& fn, const passes::DataflowGraph& graph,
                           const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                           const WorkloadSummary& workload, const PredictOptions& options = {});

/// The flow-cache capacity `nic` declares, in entries (0 when it has none).
double flow_cache_capacity(const lnic::NicProfile& nic);

/// The EMEM working set one NF's placement exerts under `workload`: what
/// the predictor prices the EMEM cache hit rate from, and the pressure a
/// co-resident NF adds to its neighbour's.
struct EmemWorkingSet {
  /// `base`, then the active bytes of each EMEM-placed state object in
  /// order (hash tables capped at distinct flows × entry bytes), then
  /// tail_pool.
  double bytes = 0.0;
  /// The recycled buffer pool spilled packet tails occupy (~1k regions
  /// of 2 kB) when the average frame exceeds CTM residency, else 0.
  double tail_pool = 0.0;
};
EmemWorkingSet emem_working_set(const cir::Function& fn, const mapping::Mapping& mapping,
                                const lnic::NicProfile& profile, const WorkloadSummary& workload,
                                double base = 0.0);

/// Summarizes `trace` in one pass over its packets (plus one to
/// classify them): the packet classes, mean payload, distinct flows, and
/// the hints the mapper and predictor share — average payload, loop-trip
/// parameters, and the flow-cache hit rate estimated from observed flow
/// popularity vs. `nic`'s cache capacity.
WorkloadSummary summarize(const workload::Trace& trace, const lnic::NicProfile& nic,
                          std::size_t payload_buckets);

/// The summary of the trace `profile` generates, bit for bit
/// summarize(generate_trace(profile), nic, payload_buckets), taken in the
/// generator's own pass without holding its packets. When `trace` is
/// given, the same pass also collects the packets there (counted in
/// workload/traces_generated, like generate_trace).
WorkloadSummary summarize(const workload::WorkloadProfile& profile, const lnic::NicProfile& nic,
                          std::size_t payload_buckets, workload::Trace* trace = nullptr);

}  // namespace clara::core
