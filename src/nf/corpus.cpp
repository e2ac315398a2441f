#include "nf/corpus.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "nf/nf_cir.hpp"
#include "nf/nf_ported.hpp"

namespace clara::nf {

using nicsim::MemLevel;
using Program = std::unique_ptr<nicsim::NicProgram>;

struct Tables {
  nicsim::NicSim& sim;
  const std::vector<cir::StateObject>& state;
  std::span<const MemLevel> levels;
  std::vector<Table> made;

  nicsim::ExactTable& exact(std::size_t i) {
    auto& table = sim.create_table(state[i].name, state[i].entries, state[i].entry_bytes, levels[i]);
    made[i] = &table;
    return table;
  }
  /// The match-action engine walks its own DRAM, so the level is unused.
  nicsim::LpmTable& lpm(std::size_t i, bool flow_cache) {
    auto& table = sim.create_lpm(state[i].name, state[i].entries,
                                 flow_cache ? sim.config().flow_cache_entries : 0);
    made[i] = &table;
    return table;
  }
};

namespace {

Error no_port(std::string_view nf) {
  return make_error(ErrorCode::kParse, "no ported implementation for NF '" + std::string(nf) + "'");
}

}  // namespace

const std::vector<NfEntry>& corpus() {
  // Meter's and flow-stats' hand placements are where the ILP puts their
  // state on the Netronome profile (ctm0 and imem).
  static const std::vector<NfEntry> kCorpus = {
      {"lpm", "longest-prefix match, 10k rules, flow cache on", [] { return build_lpm_nf(); },
       [](Tables& t, const PortTuning& k) -> Program {
         return std::make_unique<LpmProgram>(t.lpm(0, k.flow_cache), k.flow_cache);
       },
       {MemLevel::kEmem}},
      {"lpm-nocache", "LPM without the flow cache", [] { return build_lpm_nf({.use_flow_cache = false}); },
       [](Tables& t, const PortTuning&) -> Program { return std::make_unique<LpmProgram>(t.lpm(0, false), false); },
       {MemLevel::kEmem}},
      {"nat", "network address translation with per-flow table", [] { return build_nat_nf(); },
       [](Tables& t, const PortTuning& k) -> Program { return std::make_unique<NatProgram>(t.exact(0), k.csum_accel); },
       {MemLevel::kEmem}},
      {"firewall", "stateful firewall with rule table", [] { return build_fw_nf(); },
       [](Tables& t, const PortTuning&) -> Program {
         auto& conn = t.exact(0);  // first: same-level tables take addresses in creation order
         return std::make_unique<FwProgram>(conn, t.exact(1));
       },
       {MemLevel::kImem, MemLevel::kCtm}},
      {"dpi", "deep packet inspection (explicit byte-scan loop)", [] { return build_dpi_nf(); },
       [](Tables&, const PortTuning&) -> Program { return std::make_unique<DpiProgram>(); }, {}},
      {"heavy-hitter", "per-flow counters with threshold", [] { return build_hh_nf(); },
       [](Tables& t, const PortTuning&) -> Program { return std::make_unique<HhProgram>(t.exact(0)); },
       {MemLevel::kImem}},
      {"meter", "token-bucket metering", [] { return build_meter_nf(); },
       [](Tables& t, const PortTuning&) -> Program { return std::make_unique<MeterProgram>(t.exact(0)); },
       {MemLevel::kCtm}},
      {"flow-stats", "per-flow packet/byte statistics", [] { return build_flowstats_nf(); },
       [](Tables& t, const PortTuning&) -> Program { return std::make_unique<FlowStatsProgram>(t.exact(0)); },
       {MemLevel::kImem}},
      {"rewrite", "header rewrite (minimal NF)", [] { return build_rewrite_nf(); },
       [](Tables&, const PortTuning&) -> Program { return std::make_unique<RewriteProgram>(); }, {}},
      {"vnf-chain", "DPI -> meter -> header mods -> flow stats", [] { return build_vnf_chain(); },
       [](Tables& t, const PortTuning&) -> Program {
         auto& meters = t.exact(0);
         return std::make_unique<VnfProgram>(meters, t.exact(1));
       },
       {MemLevel::kCtm, MemLevel::kImem}},
      {"crypto-gw", "IPsec-style gateway (crypto engine)", [] { return build_crypto_gw_nf(); },
       [](Tables& t, const PortTuning&) -> Program { return std::make_unique<CryptoGwProgram>(t.exact(0), true); },
       {MemLevel::kCtm}},
      {"csum-loop", "checksum as an accumulation loop (idiom demo)", [] { return build_csum_loop_nf(); }, nullptr,
       {}},
      {"rate-estimator", "EWMA rate estimation (floating point)", [] { return build_rate_estimator_nf(); },
       nullptr, {}},
  };
  return kCorpus;
}

const NfEntry* find_nf(std::string_view name) {
  const auto& entries = corpus();
  const auto it = std::find_if(entries.begin(), entries.end(), [&](const NfEntry& e) { return name == e.name; });
  return it == entries.end() ? nullptr : &*it;
}

Result<Port> port(std::string_view nf, const cir::Function& fn, nicsim::NicSim& sim,
                  std::span<const MemLevel> levels, const PortTuning& tuning) {
  const NfEntry* entry = find_nf(nf);
  if (entry == nullptr || entry->port == nullptr) return no_port(nf);
  const auto& state = fn.state_objects;
  if (state.size() != entry->placement.size()) {
    return make_error(ErrorCode::kParse, strf("NF '%s' declares %zu state object(s); its hand port serves %zu",
                                              entry->name, state.size(), entry->placement.size()));
  }
  for (const auto& s : state) {
    if (s.entries == 0 || s.entry_bytes == 0) {
      return make_error(ErrorCode::kParse, strf("state object '%s' of NF '%s' is empty", s.name.c_str(), entry->name));
    }
  }
  if (levels.size() < state.size()) {
    return make_error(ErrorCode::kInternal, strf("%zu level(s) for %zu state object(s)", levels.size(), state.size()));
  }
  Tables tables{sim, state, levels, std::vector<Table>(state.size())};
  auto program = entry->port(tables, tuning);
  return Port{std::move(program), std::move(tables.made)};
}

Result<nicsim::RunStats> simulate(std::string_view nf, const cir::Function& fn, std::span<const MemLevel> levels,
                                  const workload::Trace& trace, const PortTuning& tuning) {
  const nicsim::SimLease sim;
  const auto ported = port(nf, fn, *sim, levels, tuning);
  if (!ported) return ported.error();
  return sim->run(*ported.value().program, trace);
}

Result<nicsim::RunStats> simulate(std::string_view nf, const workload::Trace& trace, const PortTuning& tuning) {
  const NfEntry* entry = find_nf(nf);
  if (entry == nullptr) return no_port(nf);
  return simulate(nf, entry->build(), entry->placement, trace, tuning);
}

std::vector<MemLevel> mapped_levels(const lnic::NicProfile& profile, std::span<const NodeId> regions) {
  std::vector<MemLevel> levels;
  for (const NodeId region : regions) {
    switch (profile.graph.node(region).memory()->kind) {
      case lnic::MemKind::kLocal: levels.push_back(MemLevel::kLocal); break;
      case lnic::MemKind::kCtm: levels.push_back(MemLevel::kCtm); break;
      case lnic::MemKind::kImem: levels.push_back(MemLevel::kImem); break;
      case lnic::MemKind::kEmem: levels.push_back(MemLevel::kEmem); break;
    }
  }
  return levels;
}

}  // namespace clara::nf
