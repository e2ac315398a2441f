// Energy analysis — paper §6 ("Extending Clara for energy analysis
// would require modeling energy consumption [E3, ATC'19]").
//
// Model: each compute-unit kind has an active energy per busy cycle,
// memory accesses cost fixed energy per access by level, the packet
// datapath costs energy per byte moved, and the device burns a static
// idle power. Clara predicts nJ/packet from the same per-pool demand
// and state-access numbers the latency predictor derives; the simulator
// measures it from its exact busy counters, giving the usual
// predicted-vs-actual comparison.
//
// Parameters live in the ParameterStore under "energy.*" keys; the
// built-in profiles carry defaults chosen so the Netronome-like device
// idles ~15 W and peaks ~25 W (the Agilio CX class), with ARM SoCs
// hungrier per cycle but faster.
#pragma once

#include "core/predict.hpp"

namespace clara::core {

namespace energy_keys {
inline constexpr const char* kNpuPerCycle = "energy.npu.nj_per_cycle";       // active nJ per busy cycle
inline constexpr const char* kAccelPerCycle = "energy.accel.nj_per_cycle";   // accelerators
inline constexpr const char* kMemPerAccessCtm = "energy.mem.ctm.nj";         // per access
inline constexpr const char* kMemPerAccessImem = "energy.mem.imem.nj";
inline constexpr const char* kMemPerAccessEmem = "energy.mem.emem.nj";       // DRAM access
inline constexpr const char* kDmaPerByte = "energy.dma.nj_per_byte";
inline constexpr const char* kIdleWatts = "energy.idle.watts";
}  // namespace energy_keys

/// Fills the energy.* keys with defaults appropriate for the profile's
/// class if they are absent (profiles may override).
void ensure_energy_defaults(lnic::ParameterStore& params, const std::string& profile_name);

struct EnergyEstimate {
  /// Dynamic energy attributable to one packet.
  double nj_per_packet = 0.0;
  /// Total device power at the offered rate (idle + dynamic).
  double watts_at_rate = 0.0;
  /// Energy efficiency: nanojoules per packet including the idle share.
  double nj_per_packet_total = 0.0;
};

/// Predicts per-packet energy for an analyzed NF. Uses the same mapping
/// and workload the latency prediction used.
EnergyEstimate predict_energy(const cir::Function& fn, const passes::DataflowGraph& graph,
                              const mapping::Mapping& mapping, const mapping::Mapper& mapper,
                              const WorkloadSummary& workload);

}  // namespace clara::core
