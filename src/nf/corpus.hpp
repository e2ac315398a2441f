// The NF corpus: each unported CIR builder paired with its hand port
// (paper §4 validates the one against the other), by name. The CLI, the
// daemon, the accuracy ledger, the benches and the tests all resolve NFs
// here. A port makes one simulator table per state object of the
// function it is given, sized from that object, at the level the caller
// gives for it: the predictor and the simulator read the same declared
// state, while their cost models stay separate (docs/architecture.md).
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "cir/function.hpp"
#include "common/result.hpp"
#include "lnic/profiles.hpp"
#include "nicsim/sim.hpp"

namespace clara::nf {

/// Figure 1's hand-tuning knobs.
struct PortTuning {
  bool csum_accel = true;  // NAT's checksum on the ingress unit, else NPU software
  bool flow_cache = true;  // LPM lookups through the match-action engine's flow cache
};

/// Makes a port's tables from the function's state objects (corpus.cpp).
struct Tables;

struct NfEntry {
  const char* name;
  const char* description;
  cir::Function (*build)();
  /// The hand port; nullptr when the NF has none.
  std::unique_ptr<nicsim::NicProgram> (*port)(Tables& tables, const PortTuning& tuning);
  /// The levels `clara simulate` places the port's tables at, one per
  /// state object the port serves.
  std::vector<nicsim::MemLevel> placement;
};

/// The corpus, in listing order.
const std::vector<NfEntry>& corpus();
/// Lookup by name; nullptr when unknown.
const NfEntry* find_nf(std::string_view name);

using Table = std::variant<const nicsim::ExactTable*, const nicsim::LpmTable*>;

/// A hand port made on a simulator; valid while that simulator lives.
struct Port {
  std::unique_ptr<nicsim::NicProgram> program;
  std::vector<Table> tables;  // one per state object, in state order
};

/// Makes corpus NF `nf`'s hand port for `fn` on `sim`, state object i's
/// table at levels[i]. kParse when `nf` has no hand port or `fn` has state
/// the port cannot serve (another number of state objects, or one with no
/// entries or zero-byte entries): inline CIR reaches here from outside.
Result<Port> port(std::string_view nf, const cir::Function& fn, nicsim::NicSim& sim,
                  std::span<const nicsim::MemLevel> levels, const PortTuning& tuning = {});

/// Replays `trace` through that port on the calling thread's simulator,
/// reset first (nicsim::reset_thread_sim).
Result<nicsim::RunStats> simulate(std::string_view nf, const cir::Function& fn,
                                  std::span<const nicsim::MemLevel> levels, const workload::Trace& trace,
                                  const PortTuning& tuning = {});
/// What `clara simulate` runs: corpus NF `nf` as built, at its hand placement.
Result<nicsim::RunStats> simulate(std::string_view nf, const workload::Trace& trace, const PortTuning& tuning = {});

/// The simulator level of each mapped state region on `profile`.
std::vector<nicsim::MemLevel> mapped_levels(const lnic::NicProfile& profile, std::span<const NodeId> regions);

}  // namespace clara::nf
