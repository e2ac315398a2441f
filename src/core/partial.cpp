#include "core/partial.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "passes/costmodel.hpp"

namespace clara::core {

namespace {

/// Host-side cycles for one execution of a dataflow node.
double host_node_cycles(const passes::DfNode& node, const cir::Function& fn, const HostModel& host,
                        double avg_payload) {
  const auto& mix = node.mix;
  double cycles = static_cast<double>(mix.alu + mix.cmp + mix.select + mix.branch + mix.phi + mix.fp +
                                      mix.header_ops + mix.scratch_ops) *
                  host.cycles_per_instr;
  cycles += static_cast<double>(mix.mul) * 3.0 * host.cycles_per_instr;
  cycles += static_cast<double>(mix.div) * 20.0 * host.cycles_per_instr;
  cycles += static_cast<double>(mix.packet_loads + mix.packet_stores) * host.packet_access_cycles;
  for (const auto& [s, n] : mix.state_reads) cycles += static_cast<double>(n) * host.state_access_cycles;
  for (const auto& [s, n] : mix.state_writes) cycles += static_cast<double>(n) * host.state_access_cycles;

  for (const auto& site : node.vcalls) {
    const double arg = site.arg_hint > 0.0 ? site.arg_hint : avg_payload;
    switch (site.v) {
      case cir::VCall::kParse: cycles += host.parse_cycles; break;
      case cir::VCall::kGetHdr: case cir::VCall::kSetHdr: cycles += host.cycles_per_instr; break;
      case cir::VCall::kCsum: cycles += host.csum_base + host.csum_per_byte * arg; break;
      case cir::VCall::kCrypto: cycles += host.crypto_per_byte * arg; break;
      case cir::VCall::kLpmLookup: cycles += host.lpm_cycles; break;
      case cir::VCall::kTableLookup: cycles += host.table_lookup_cycles; break;
      case cir::VCall::kTableUpdate: cycles += host.table_update_cycles; break;
      case cir::VCall::kPayloadScan: cycles += host.scan_per_byte * arg; break;
      case cir::VCall::kMeter: cycles += host.meter_cycles; break;
      case cir::VCall::kStatsUpdate: cycles += host.stats_cycles; break;
      case cir::VCall::kEmit: case cir::VCall::kDrop: cycles += 30.0; break;
    }
    // Host-side placement-dependent state accesses (hash probes etc.).
    if (site.state != ~0u) {
      const auto* state = &fn.state_objects[site.state];
      cycles += passes::vcall_state_accesses(site.v, lnic::UnitKind::kNpuCore, state) * host.state_access_cycles;
    }
  }
  return cycles;
}

}  // namespace

Result<PartialResult> plan_partial_offload(const cir::Function& fn, const passes::DataflowGraph& graph,
                                           const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                                           const WorkloadSummary& workload, const HostModel& host) {
  const auto& nodes = graph.nodes();
  if (nodes.empty()) return make_error("partial offload: empty dataflow graph");
  const std::size_t n = nodes.size();

  const passes::CostHints& hints = workload.hints;
  const double nic_clock = mapper.prices().clock_hz;
  const double frame = workload.mean_payload + 54.0;

  // Valid cuts: no dataflow edge may run from the host side back to the
  // NIC side (node ids are assigned in reverse post-order, so prefix
  // cuts respect forward edges; backward edges are loops).
  auto cut_valid = [&](std::size_t cut) {
    for (const auto& edge : graph.edges()) {
      if (edge.from >= cut && edge.to < cut) return false;
    }
    return true;
  };

  // Per-node one-side costs.
  std::vector<double> nic_cost(n, 0.0), host_cost(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& pool = mapper.pools()[mapping.node_pool[i]];
    double cycles = mapper.node_cost_on_pool(nodes[i], pool, fn, hints);
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      const double accesses =
          mapping::Mapper::node_state_accesses(nodes[i], pool.kind, static_cast<std::uint32_t>(s), fn);
      if (accesses > 0.0) cycles += accesses * mapper.access_cycles(pool, mapping.state_region[s]);
    }
    nic_cost[i] = nodes[i].weight * cycles;
    host_cost[i] = nodes[i].weight * host_node_cycles(nodes[i], fn, host, hints.avg_payload);
  }

  // State-access counts per side per cut are needed for the coherence
  // penalty; precompute per-node per-state access totals (kind-agnostic
  // approximation: NPU-side counts).
  std::vector<std::vector<double>> state_accesses(n, std::vector<double>(fn.state_objects.size(), 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      state_accesses[i][s] = nodes[i].weight * mapping::Mapper::node_state_accesses(
                                                   nodes[i], lnic::UnitKind::kNpuCore,
                                                   static_cast<std::uint32_t>(s), fn);
    }
  }

  PartialResult result;
  for (std::size_t cut = 0; cut <= n; ++cut) {
    if (!cut_valid(cut)) continue;
    PartialPlan plan;
    plan.cut = cut;
    double nic_cycles = 0.0, host_cycles = 0.0;
    for (std::size_t i = 0; i < cut; ++i) nic_cycles += nic_cost[i];
    for (std::size_t i = cut; i < n; ++i) host_cycles += host_cost[i];

    // Datapath constants: the NIC always receives the packet; a pure
    // host plan just forwards it.
    nic_cycles += mapper.prices().ingress_base + mapper.prices().ingress_per_byte * frame;

    if (cut < n) {
      // Packets cross to the host only if the NIC-side prefix did not
      // already dispose of them (drop/emit): the crossing fraction is
      // the expected executions of the first host node.
      plan.crossing_fraction = std::min(1.0, nodes[cut].weight);
      plan.pcie_us = plan.crossing_fraction * (host.pcie_rtt_us + host.pcie_us_per_byte * frame);
    } else {
      plan.crossing_fraction = 0.0;
    }

    // Cross-side state: each state object lives with the side that
    // touches it more; the minority side pays a PCIe round trip per
    // access (no coherence over PCIe).
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      double nic_touches = 0.0, host_touches = 0.0;
      for (std::size_t i = 0; i < cut; ++i) nic_touches += state_accesses[i][s];
      for (std::size_t i = cut; i < n; ++i) host_touches += state_accesses[i][s];
      plan.pcie_us += std::min(nic_touches, host_touches) * host.pcie_rtt_us;
    }

    plan.nic_us = nic_cycles / nic_clock * 1e6;
    plan.host_us = host_cycles / host.clock_hz * 1e6;
    plan.weighted_cost = plan.nic_us + plan.pcie_us + host.host_core_weight * plan.host_us;
    plan.boundary = cut == 0 ? "(all host)" : cut == n ? "(full offload)" : nodes[cut].label;
    result.plans.push_back(plan);
  }

  result.best = 0;
  for (std::size_t i = 1; i < result.plans.size(); ++i) {
    if (result.plans[i].weighted_cost < result.plans[result.best].weighted_cost) result.best = i;
  }
  return result;
}

std::string describe_partial(const PartialResult& result, const passes::DataflowGraph& graph) {
  (void)graph;
  std::string out = strf("%-28s %9s %9s %9s %9s %9s\n", "cut (first host node)", "nic us", "host us",
                         "pcie us", "cross", "total us");
  for (std::size_t i = 0; i < result.plans.size(); ++i) {
    const auto& plan = result.plans[i];
    out += strf("%-28s %9.2f %9.2f %9.2f %8.0f%% %9.2f%s\n", plan.boundary.c_str(), plan.nic_us, plan.host_us,
                plan.pcie_us, plan.crossing_fraction * 100.0, plan.total_us(),
                i == result.best ? "  <== best" : "");
  }
  return out;
}

}  // namespace clara::core
