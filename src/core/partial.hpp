// Partial offloading — paper §6: "another useful task is to understand
// the performance of partial offloading, where the NF is partitioned
// into two components — one resident in the SmartNIC and another in
// server CPUs. Capturing partial offloading performance requires
// reasoning about the host/NIC interconnect (e.g., PCIe)."
//
// Model: the dataflow graph is cut at a topological prefix — nodes
// before the cut run on the NIC (using the ILP mapping), nodes after it
// run on a host core (priced by a simple x86 cost model). A packet that
// crosses the cut pays one PCIe traversal (round-trip latency plus
// per-byte transfer for the frame). State objects live with the side
// that touches them most; accesses from the other side pay a PCIe round
// trip each (there is no cache coherence over PCIe — the paper's point).
//
// Cuts that would split a loop between the sides are rejected.
#pragma once

#include <string>
#include <vector>

#include "core/predict.hpp"

namespace clara::core {

/// Host-side execution model (a big out-of-order core, everything warm
/// in cache) and the interconnect.
struct HostModel {
  double clock_hz = 3.4e9;
  double cycles_per_instr = 0.4;   // sustained IPC ~2.5
  double state_access_cycles = 14; // L2-resident NF state
  double packet_access_cycles = 8;
  double csum_base = 80, csum_per_byte = 0.12;
  double crypto_per_byte = 2.5;    // AES-NI
  double lpm_cycles = 120;         // DXR/radix in cache
  double table_lookup_cycles = 90;
  double table_update_cycles = 120;
  double scan_per_byte = 1.2;
  double meter_cycles = 60, stats_cycles = 50;
  double parse_cycles = 45;
  /// PCIe round trip and effective per-byte cost (posted writes).
  double pcie_rtt_us = 0.9;
  double pcie_us_per_byte = 0.0008;
  /// Relative cost of a host-core microsecond vs a NIC microsecond when
  /// choosing the best plan. 1.0 compares pure end-to-end latency;
  /// larger values encode the paper's economic motivation ("consumed
  /// resources are no longer available to revenue-generating tenant
  /// VMs") — host cycles are the scarce resource offloading frees.
  double host_core_weight = 1.0;
};

struct PartialPlan {
  /// Dataflow nodes [0, cut) run on the NIC, [cut, n) on the host.
  std::size_t cut = 0;
  double nic_us = 0.0;
  double host_us = 0.0;
  double pcie_us = 0.0;
  /// Fraction of packets that actually cross to the host (NIC-side
  /// drops/filters reduce it — the classic partial-offload win).
  double crossing_fraction = 1.0;
  [[nodiscard]] double total_us() const { return nic_us + host_us + pcie_us; }
  /// Plan score under the host-core weight (what `best` minimizes).
  double weighted_cost = 0.0;
  /// Human-readable boundary ("... | translate[0:5] ...").
  std::string boundary;
};

struct PartialResult {
  /// One plan per valid cut, in cut order. Always includes cut = 0
  /// (everything on the host) and cut = n (full offload).
  std::vector<PartialPlan> plans;
  std::size_t best = 0;  // index into plans

  [[nodiscard]] const PartialPlan& best_plan() const { return plans[best]; }
};

/// Evaluates every valid prefix cut of the mapped NF. `graph` and
/// `mapping` must come from the same Analyzer run (the NIC-side costs
/// reuse the ILP's unit bindings).
Result<PartialResult> plan_partial_offload(const cir::Function& fn, const passes::DataflowGraph& graph,
                                           const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                                           const WorkloadSummary& workload, const HostModel& host = {});

/// Renders the plan table.
std::string describe_partial(const PartialResult& result, const passes::DataflowGraph& graph);

}  // namespace clara::core
