#include "core/energy.hpp"

#include <cmath>

#include "passes/costmodel.hpp"

namespace clara::core {

namespace ek = energy_keys;

void ensure_energy_defaults(lnic::ParameterStore& params, const std::string& profile_name) {
  auto set_if_absent = [&](const char* key, double v) {
    if (!params.has(key)) params.set_scalar(key, v);
  };
  if (profile_name == "soc-arm") {
    // Big OoO cores: more energy per cycle, but cycles are shorter.
    set_if_absent(ek::kNpuPerCycle, 0.9);
    set_if_absent(ek::kAccelPerCycle, 0.3);
    set_if_absent(ek::kIdleWatts, 20.0);
  } else if (profile_name == "pipeline-asic") {
    set_if_absent(ek::kNpuPerCycle, 0.25);
    set_if_absent(ek::kAccelPerCycle, 0.05);
    set_if_absent(ek::kIdleWatts, 30.0);
  } else {
    // Netronome-class NPUs: small in-order cores.
    set_if_absent(ek::kNpuPerCycle, 0.15);
    set_if_absent(ek::kAccelPerCycle, 0.30);
    set_if_absent(ek::kIdleWatts, 15.0);
  }
  set_if_absent(ek::kMemPerAccessCtm, 0.8);
  set_if_absent(ek::kMemPerAccessImem, 2.0);
  set_if_absent(ek::kMemPerAccessEmem, 12.0);  // DRAM row activation
  set_if_absent(ek::kDmaPerByte, 0.05);
}

EnergyEstimate predict_energy(const cir::Function& fn, const passes::DataflowGraph& graph,
                              const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                              const WorkloadSummary& workload) {
  lnic::ParameterStore params = mapper.profile().params;  // copy: we may add defaults
  ensure_energy_defaults(params, mapper.profile().name);
  const passes::CostHints& hints = workload.hints;

  const double npu_nj = params.scalar(ek::kNpuPerCycle);
  const double accel_nj = params.scalar(ek::kAccelPerCycle);

  auto mem_nj = [&](NodeId region) {
    switch (mapper.profile().graph.node(region).memory()->kind) {
      case lnic::MemKind::kLocal: return 0.1;
      case lnic::MemKind::kCtm: return params.scalar(ek::kMemPerAccessCtm);
      case lnic::MemKind::kImem: return params.scalar(ek::kMemPerAccessImem);
      case lnic::MemKind::kEmem: return params.scalar(ek::kMemPerAccessEmem);
    }
    return 1.0;
  };

  EnergyEstimate out;
  for (const auto& node : graph.nodes()) {
    const auto& pool = mapper.pools()[mapping.node_pool[node.id]];
    const double cycles = mapper.node_cost_on_pool(node, pool, fn, hints);
    const double per_cycle = pool.kind == lnic::UnitKind::kNpuCore ? npu_nj : accel_nj;
    out.nj_per_packet += node.weight * cycles * per_cycle;
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      const double accesses =
          mapping::Mapper::node_state_accesses(node, pool.kind, static_cast<std::uint32_t>(s), fn);
      if (accesses > 0.0) {
        out.nj_per_packet += node.weight * accesses * mem_nj(mapping.state_region[s]);
      }
    }
  }
  // Datapath: moving the frame on and off the device.
  const double frame = workload.mean_payload + 54.0;
  out.nj_per_packet += 2.0 * frame * params.scalar(ek::kDmaPerByte);

  const double pps = workload.profile.pps;
  const double idle = params.scalar(ek::kIdleWatts);
  out.watts_at_rate = idle + out.nj_per_packet * 1e-9 * pps;
  out.nj_per_packet_total = pps > 0.0 ? out.watts_at_rate / pps * 1e9 : out.nj_per_packet;
  return out;
}

}  // namespace clara::core
