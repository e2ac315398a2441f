#include "mapping/mapping.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <tuple>

#include "common/strings.hpp"
#include "ilp/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/costmodel.hpp"

namespace clara::mapping {

using passes::CostHints;
using passes::DataflowGraph;
using passes::DfNode;

ilp::SolveOptions MapOptions::to_solve_options() const {
  ilp::SolveOptions solve;
  solve.max_nodes = max_ilp_nodes;
  if (time_budget_ms > 0.0) {
    solve.deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(time_budget_ms));
  }
  return solve;
}

std::vector<UnitPool> build_pools(const lnic::Graph& graph) {
  std::map<std::tuple<int, int, bool>, UnitPool> grouped;  // (kind, stage, match-action) -> pool
  for (const NodeId id : graph.compute_units()) {
    const auto* cu = graph.node(id).compute();
    if (cu->offline) continue;  // faulted units never join a pool
    const auto key = std::make_tuple(static_cast<int>(cu->kind), cu->pipeline_stage, cu->match_action);
    auto& pool = grouped[key];
    if (pool.members.empty()) {
      pool.kind = cu->kind;
      pool.pipeline_stage = cu->pipeline_stage;
      pool.match_action = cu->match_action;
      pool.representative = id;
      pool.parallelism = 0.0;
      pool.name = lnic::to_string(cu->kind);
      if (cu->pipeline_stage != 0) pool.name += strf("@%d", cu->pipeline_stage);
    }
    pool.members.push_back(id);
    pool.parallelism += static_cast<double>(std::max(1, cu->threads)) * cu->derate;
  }
  std::vector<UnitPool> pools;
  pools.reserve(grouped.size());
  for (auto& [key, pool] : grouped) pools.push_back(std::move(pool));
  return pools;
}

Mapper::Mapper(const lnic::NicProfile& profile) : profile_(&profile), pools_(build_pools(profile.graph)) {}

bool Mapper::pool_feasible(const DfNode& node, const UnitPool& pool) const {
  for (const auto& site : node.vcalls) {
    if (!passes::unit_supports_vcall(pool.kind, pool.match_action, site.v)) return false;
  }
  return passes::unit_supports_general_compute(pool.kind, pool.match_action, node.mix);
}

double Mapper::access_cycles(const UnitPool& pool, NodeId region) const {
  // Average NUMA weight over pool members that can reach the region; a
  // pool where no member reaches it gets an effectively-infinite cost
  // (the ILP forbids the pairing with a hard constraint as well).
  double total = 0.0;
  int reachable = 0;
  for (const NodeId member : pool.members) {
    if (const auto w = profile_->graph.access_weight(member, region)) {
      total += *w;
      ++reachable;
    }
  }
  if (reachable == 0) return 1e12;
  const double avg_weight = total / reachable;
  const auto* mem = profile_->graph.node(region).memory();
  const char* key = nullptr;
  switch (mem->kind) {
    case lnic::MemKind::kLocal: key = lnic::keys::kMemReadLocal; break;
    case lnic::MemKind::kCtm: key = lnic::keys::kMemReadCtm; break;
    case lnic::MemKind::kImem: key = lnic::keys::kMemReadImem; break;
    case lnic::MemKind::kEmem: key = lnic::keys::kMemReadEmem; break;
  }
  return profile_->params.scalar(key) * avg_weight;
}

double Mapper::node_cost_on_pool(const DfNode& node, const UnitPool& pool, const cir::Function& fn,
                                 const CostHints& hints) const {
  const auto& params = profile_->params;
  double cycles = passes::mix_compute_cycles(node.mix, pool.kind, params);

  // Packet-byte accesses from explicit loads/stores in the mix.
  const double pkt_len = hints.avg_payload + 54.0;
  cycles += static_cast<double>(node.mix.packet_loads + node.mix.packet_stores) *
            passes::packet_access_cycles(pkt_len, -1.0, params);

  for (const auto& site : node.vcalls) {
    const double arg = site.arg_hint > 0.0 ? site.arg_hint : hints.avg_payload;
    const cir::StateObject* state = site.state != ~0u ? &fn.state_objects[site.state] : nullptr;
    cycles += passes::vcall_compute_cycles(site.v, pool.kind, arg, state, params, hints, site.use_flow_cache);
    // Payload scans stream packet bytes in cache-line chunks.
    if (site.v == cir::VCall::kPayloadScan) {
      cycles += std::ceil(arg / 64.0) * passes::packet_access_cycles(arg + 54.0, -1.0, params);
    }
  }
  return cycles;
}

double Mapper::node_queueable_cost_on_pool(const DfNode& node, const UnitPool& pool, const cir::Function& fn,
                                           const CostHints& hints) const {
  double cycles = node_cost_on_pool(node, pool, fn, hints);
  if (pool.kind == lnic::UnitKind::kLpmEngine) {
    const double front_end = profile_->params.scalar(lnic::keys::kFlowCacheHit);
    for (const auto& site : node.vcalls) {
      if (site.v != cir::VCall::kLpmLookup) continue;
      const cir::StateObject* state = site.state != ~0u ? &fn.state_objects[site.state] : nullptr;
      cycles -= passes::vcall_compute_cycles(site.v, pool.kind, 0.0, state, profile_->params, hints,
                                             site.use_flow_cache);
      cycles += front_end;
    }
  }
  return std::max(0.0, cycles);
}

double Mapper::node_state_accesses(const DfNode& node, lnic::UnitKind kind, std::uint32_t state,
                                   const cir::Function& fn) {
  double accesses = 0.0;
  const auto rit = node.mix.state_reads.find(state);
  if (rit != node.mix.state_reads.end()) accesses += static_cast<double>(rit->second);
  const auto wit = node.mix.state_writes.find(state);
  if (wit != node.mix.state_writes.end()) accesses += static_cast<double>(wit->second);
  for (const auto& site : node.vcalls) {
    if (site.state != state) continue;
    const cir::StateObject* obj = &fn.state_objects[state];
    accesses += passes::vcall_state_accesses(site.v, kind, obj);
  }
  return accesses;
}

std::vector<NodeId> Mapper::state_regions() const {
  std::vector<NodeId> out;
  for (const NodeId id : profile_->graph.memory_regions()) {
    const auto* mem = profile_->graph.node(id).memory();
    if (mem->kind == lnic::MemKind::kLocal) continue;  // per-core, not shareable state
    if (mem->offline) continue;                        // fault state: no new placements
    out.push_back(id);
  }
  return out;
}

namespace {

std::vector<PoolSignature> pool_signatures(const std::vector<UnitPool>& pools) {
  std::vector<PoolSignature> sigs;
  sigs.reserve(pools.size());
  for (const auto& p : pools)
    sigs.push_back(PoolSignature{p.kind, p.pipeline_stage, p.match_action, p.parallelism});
  return sigs;
}

/// Bytes of a region that state may occupy: a CTM keeps the rest of its
/// capacity for packet buffers.
double usable_bytes(const lnic::MemoryRegion& mem, const MapOptions& options) {
  const double capacity = static_cast<double>(mem.capacity);
  return mem.kind == lnic::MemKind::kCtm ? capacity * options.ctm_state_fraction : capacity;
}

/// access_cycles() prices a pool that cannot reach a region at 1e12; no
/// real access latency comes anywhere near this.
bool unreachable(double access_cycles) { return access_cycles >= 1e11; }

/// Weighted per-packet cycles `node` spends on state `s` held in
/// `region` when it runs on `pool`; 0 when the node never touches s.
double access_term(const Mapper& mapper, const DfNode& node, const UnitPool& pool, std::size_t s, NodeId region,
                   const cir::Function& fn) {
  const double accesses = Mapper::node_state_accesses(node, pool.kind, static_cast<std::uint32_t>(s), fn);
  return accesses > 0.0 ? node.weight * accesses * mapper.access_cycles(pool, region) : 0.0;
}

/// Θ: per-packet cycles `pool` can serve at the offered rate.
double theta_budget(const Mapper& mapper, const UnitPool& pool, const MapOptions& options) {
  return mapper.profile().params.scalar(lnic::keys::kClockHz) / options.pps * pool.parallelism;
}

/// Assignments a placement model takes as given: a pool index per
/// dataflow node and an index into the state regions per state object,
/// -1 where the solver chooses. map() pins nothing; repair() pins what
/// the fault left intact.
struct Pins {
  explicit Pins(const DataflowGraph& graph)
      : pool(graph.nodes().size(), -1), region(graph.function()->state_objects.size(), -1) {}
  std::vector<int> pool;
  std::vector<int> region;
};

/// Per-packet Θ demand of the nodes pinned to pool `p`.
double pinned_demand(const Mapper& mapper, const DataflowGraph& graph, const CostHints& hints, const Pins& pins,
                     std::size_t p) {
  double demand = 0.0;
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    if (pins.pool[i] != static_cast<int>(p)) continue;
    demand += graph.nodes()[i].weight * mapper.node_queueable_cost_on_pool(graph.nodes()[i], mapper.pools()[p],
                                                                           *graph.function(), hints);
  }
  return demand;
}

struct PlacementModel {
  ilp::Model model;
  std::vector<std::vector<int>> x;  // x[i][p]: node i on pool p (-1 = no variable)
  std::vector<std::vector<int>> y;  // y[s][r]: state s in region r (-1 = no variable)
};

/// The placement ILP of paper §3.4 (DESIGN.md §5) over the assignments
/// `pins` leaves open. Pinned nodes and states get no variables: their
/// access costs fold into the objective coefficients of the free
/// variables they pair with, and their bytes, stages and demand into the
/// Γ, Π and Θ right-hand sides. With nothing pinned this is the full
/// model. Fails when a free node or state has nowhere to go.
Result<PlacementModel> build_model(const Mapper& mapper, const DataflowGraph& graph, const CostHints& hints,
                                   const MapOptions& options, const std::vector<NodeId>& regions,
                                   const Pins& pins) {
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const auto& pools = mapper.pools();
  const auto& profile = mapper.profile();
  const std::size_t n_states = fn.state_objects.size();
  const auto bytes = [&](std::size_t s) { return static_cast<double>(fn.state_objects[s].total_bytes()); };
  std::vector<double> usable(regions.size());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    usable[r] = usable_bytes(*profile.graph.node(regions[r]).memory(), options);
  }

  // A pinned counterpart the pairing cannot reach excludes a free
  // assignment outright (between free ones, the w rows below forbid it).
  const auto blocked = [&](const DfNode& node, const UnitPool& pool, std::size_t s, NodeId region) {
    return Mapper::node_state_accesses(node, pool.kind, static_cast<std::uint32_t>(s), fn) > 0.0 &&
           unreachable(mapper.access_cycles(pool, region));
  };
  const auto reaches_pinned_states = [&](std::size_t i, const UnitPool& pool) {
    for (std::size_t s = 0; s < n_states; ++s) {
      if (pins.region[s] >= 0 && blocked(nodes[i], pool, s, regions[pins.region[s]])) return false;
    }
    return true;
  };
  const auto reached_by_pinned_nodes = [&](std::size_t s, NodeId region) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (pins.pool[i] >= 0 && blocked(nodes[i], pools[pins.pool[i]], s, region)) return false;
    }
    return true;
  };

  PlacementModel out;
  ilp::Model& model = out.model;
  auto& x = out.x;
  auto& y = out.y;

  // x[i][p]: node i on pool p (only feasible pairs get variables).
  x.assign(nodes.size(), std::vector<int>(pools.size(), -1));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (pins.pool[i] >= 0) continue;
    ilp::LinExpr assign;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (!mapper.pool_feasible(nodes[i], pools[p]) || !reaches_pinned_states(i, pools[p])) continue;
      x[i][p] = model.add_binary(strf("x_%zu_%zu", i, p));
      assign.add(x[i][p], 1.0);
    }
    if (assign.terms().empty()) {
      return make_error(strf("node '%s' cannot be placed on any compute unit of %s", nodes[i].label.c_str(),
                             profile.name.c_str()));
    }
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0, strf("assign_node_%zu", i));
  }

  // y[s][r]: state s in region r.
  y.assign(n_states, std::vector<int>(regions.size(), -1));
  for (std::size_t s = 0; s < n_states; ++s) {
    if (pins.region[s] >= 0) continue;
    ilp::LinExpr assign;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (bytes(s) > usable[r]) continue;  // never fits alone
      if (!reached_by_pinned_nodes(s, regions[r])) continue;
      y[s][r] = model.add_binary(strf("y_%zu_%zu", s, r));
      assign.add(y[s][r], 1.0);
    }
    if (assign.terms().empty()) {
      return make_error(strf("state object '%s' (%s) fits no memory region of %s", fn.state_objects[s].name.c_str(),
                             format_bytes(fn.state_objects[s].total_bytes()).c_str(), profile.name.c_str()));
    }
    model.add_constraint(std::move(assign), ilp::Sense::kEq, 1.0, strf("assign_state_%zu", s));
  }

  // Γ capacity: states sharing a region must fit together.
  for (std::size_t r = 0; r < regions.size(); ++r) {
    double free_bytes = usable[r];
    ilp::LinExpr used;
    for (std::size_t s = 0; s < n_states; ++s) {
      if (pins.region[s] == static_cast<int>(r)) free_bytes -= bytes(s);
      if (y[s][r] >= 0) used.add(y[s][r], bytes(s));
    }
    if (!used.terms().empty()) {
      model.add_constraint(std::move(used), ilp::Sense::kLe, free_bytes, strf("capacity_%zu", r));
    }
  }

  // Π pipeline order: stage(node k) >= stage(node t) along dataflow edges,
  // as Σ stage·x[t] − Σ stage·x[k] <= 0. Profiles without stages need no
  // rows; an edge with both ends pinned has nothing left to decide.
  const bool staged =
      std::any_of(pools.begin(), pools.end(), [](const UnitPool& pool) { return pool.pipeline_stage != 0; });
  for (const auto& edge : graph.edges()) {
    const int from = pins.pool[edge.from];
    const int to = pins.pool[edge.to];
    if (!staged || (from >= 0 && to >= 0)) continue;
    ilp::LinExpr diff;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      const double stage = pools[p].pipeline_stage;
      if (x[edge.from][p] >= 0) diff.add(x[edge.from][p], stage);
      if (x[edge.to][p] >= 0) diff.add(x[edge.to][p], -stage);
    }
    double rhs = 0.0;
    if (from >= 0) rhs -= static_cast<double>(pools[from].pipeline_stage);
    if (to >= 0) rhs += static_cast<double>(pools[to].pipeline_stage);
    model.add_constraint(std::move(diff), ilp::Sense::kLe, rhs, strf("order_%u_%u", edge.from, edge.to));
  }

  // Objective: compute costs, plus each free node's accesses to pinned
  // states on its x and pinned nodes' accesses to each free state on its y.
  ilp::LinExpr objective;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (x[i][p] < 0) continue;
      double coeff = nodes[i].weight * mapper.node_cost_on_pool(nodes[i], pools[p], fn, hints);
      for (std::size_t s = 0; s < n_states; ++s) {
        if (pins.region[s] >= 0) coeff += access_term(mapper, nodes[i], pools[p], s, regions[pins.region[s]], fn);
      }
      objective.add(x[i][p], coeff);
    }
  }
  for (std::size_t s = 0; s < n_states; ++s) {
    for (std::size_t r = 0; r < regions.size(); ++r) {
      if (y[s][r] < 0) continue;
      double coeff = 0.0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (pins.pool[i] >= 0) coeff += access_term(mapper, nodes[i], pools[pins.pool[i]], s, regions[r], fn);
      }
      if (coeff != 0.0) objective.add(y[s][r], coeff);
    }
  }

  // Free node × free state access terms: w >= x_sum_by_kind + y - 1 with
  // w continuous; the positive objective coefficient pins w to the
  // product at optimum.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Group feasible pools by kind: the access count depends on the unit
    // kind, not the specific pool.
    std::map<lnic::UnitKind, std::vector<std::size_t>> by_kind;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (x[i][p] >= 0) by_kind[pools[p].kind].push_back(p);
    }
    for (std::size_t s = 0; s < n_states; ++s) {
      for (const auto& [kind, pool_idxs] : by_kind) {
        const double accesses = Mapper::node_state_accesses(nodes[i], kind, static_cast<std::uint32_t>(s), fn);
        if (accesses <= 0.0) continue;
        for (std::size_t r = 0; r < regions.size(); ++r) {
          if (y[s][r] < 0) continue;
          // Representative pool of this kind for latency purposes.
          const double lat = mapper.access_cycles(pools[pool_idxs.front()], regions[r]);
          if (unreachable(lat)) {
            // Unreachable pairing: forbid x (any pool of this kind) with y.
            for (const std::size_t p : pool_idxs) {
              ilp::LinExpr forbid;
              forbid.add(x[i][p], 1.0).add(y[s][r], 1.0);
              model.add_constraint(std::move(forbid), ilp::Sense::kLe, 1.0);
            }
            continue;
          }
          const int w = model.add_continuous(strf("w_%zu_%zu_%d_%zu", i, s, static_cast<int>(kind), r), 0.0, 1.0);
          ilp::LinExpr link;  // w >= Σ x + y - 1  ⇔  Σ x + y - w <= 1
          for (const std::size_t p : pool_idxs) link.add(x[i][p], 1.0);
          link.add(y[s][r], 1.0).add(w, -1.0);
          model.add_constraint(std::move(link), ilp::Sense::kLe, 1.0);
          objective.add(w, nodes[i].weight * accesses * lat);
        }
      }
    }
  }

  // Θ service capacity: per-packet demand on a pool must not exceed its
  // parallelism budget at the offered rate.
  for (std::size_t p = 0; p < pools.size(); ++p) {
    ilp::LinExpr demand;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (x[i][p] < 0) continue;
      demand.add(x[i][p], nodes[i].weight * mapper.node_queueable_cost_on_pool(nodes[i], pools[p], fn, hints));
    }
    if (!demand.terms().empty()) {
      model.add_constraint(std::move(demand), ilp::Sense::kLe,
                           theta_budget(mapper, pools[p], options) - pinned_demand(mapper, graph, hints, pins, p),
                           strf("theta_%zu", p));
    }
  }

  model.set_objective(std::move(objective));
  return out;
}

/// The assignment a solve of `placement` chose, pinned assignments
/// included, with the solver's statistics.
Mapping extract(const PlacementModel& placement, const ilp::Solution& solution, const Pins& pins,
                const std::vector<NodeId>& regions) {
  Mapping mapping;
  mapping.status = solution.status;
  mapping.objective = solution.objective;
  mapping.ilp_nodes_explored = solution.nodes_explored;
  mapping.ilp_pivots = solution.pivots;
  mapping.ilp_incumbents = solution.incumbents;
  mapping.degraded = solution.degraded;
  mapping.ilp_basis = solution.basis;
  mapping.node_pool.assign(pins.pool.size(), 0);
  for (std::size_t i = 0; i < pins.pool.size(); ++i) {
    if (pins.pool[i] >= 0) mapping.node_pool[i] = static_cast<std::uint32_t>(pins.pool[i]);
    for (std::size_t p = 0; p < placement.x[i].size(); ++p) {
      const int var = placement.x[i][p];
      if (var >= 0 && solution.value(var) > 0.5) mapping.node_pool[i] = static_cast<std::uint32_t>(p);
    }
  }
  mapping.state_region.assign(pins.region.size(), kInvalidNode);
  for (std::size_t s = 0; s < pins.region.size(); ++s) {
    if (pins.region[s] >= 0) mapping.state_region[s] = regions[pins.region[s]];
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const int var = placement.y[s][r];
      if (var >= 0 && solution.value(var) > 0.5) mapping.state_region[s] = regions[r];
    }
  }
  return mapping;
}

}  // namespace

Result<Mapping> Mapper::map(const DataflowGraph& graph, const CostHints& hints, const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/map");
  const auto regions = state_regions();
  const Pins none(graph);
  auto placement = build_model(*this, graph, hints, options, regions, none);
  if (!placement) return placement.error();
  const ilp::Model& model = placement.value().model;

  const ilp::SolveOptions solve_options = options.to_solve_options();
  obs::metrics().gauge("mapping/ilp_variables").set(static_cast<double>(model.num_vars()));
  obs::metrics().gauge("mapping/ilp_constraints").set(static_cast<double>(model.constraints().size()));
  const auto solution = ilp::solve_milp(model, solve_options);
  if (solution.status == ilp::SolveStatus::kInfeasible) {
    return make_error(ErrorCode::kInfeasible,
                      strf("mapping infeasible on %s at %.0f pps (capacity or ordering constraints)",
                           profile_->name.c_str(), options.pps));
  }
  if (solution.status == ilp::SolveStatus::kLimit) {
    if (solution.degraded) {
      // Deadline expired before any integer solution existed: degrade to
      // the deterministic greedy baseline instead of failing — graceful
      // degradation is the contract of time_budget_ms.
      auto fallback = map_greedy(graph, hints, options);
      if (!fallback) return fallback.error();
      fallback.value().degraded = true;
      return fallback;
    }
    return make_error(ErrorCode::kDeadline, "ILP node budget exhausted without an integer solution");
  }
  if (solution.status == ilp::SolveStatus::kUnbounded) {
    return make_error(ErrorCode::kInternal, "mapping ILP unbounded (model bug)");
  }

  Mapping mapping = extract(placement.value(), solution, none, regions);
  mapping.pool_sig = pool_signatures(pools_);
  obs::metrics().gauge("mapping/objective_cycles").set(solution.objective);
  return mapping;
}

Result<Mapping> Mapper::map_greedy(const DataflowGraph& graph, const CostHints& hints,
                                   const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/greedy");
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const auto regions = state_regions();

  Mapping mapping;
  mapping.greedy = true;
  mapping.status = ilp::SolveStatus::kOptimal;
  mapping.pool_sig = pool_signatures(pools_);
  mapping.node_pool.assign(nodes.size(), 0);
  mapping.state_region.assign(fn.state_objects.size(), kInvalidNode);

  // Nodes: cheapest feasible pool, compute cost only (the greedy mapper
  // does not anticipate state placement — that is its weakness).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double best = 1e300;
    int best_pool = -1;
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (!pool_feasible(nodes[i], pools_[p])) continue;
      const double cost = node_cost_on_pool(nodes[i], pools_[p], fn, hints);
      if (cost < best) {
        best = cost;
        best_pool = static_cast<int>(p);
      }
    }
    if (best_pool < 0) {
      return make_error(ErrorCode::kInfeasible, strf("greedy: node '%s' cannot be placed on %s",
                                                     nodes[i].label.c_str(), profile_->name.c_str()));
    }
    mapping.node_pool[i] = static_cast<std::uint32_t>(best_pool);
    mapping.objective += nodes[i].weight * best;
  }

  // States: process in declaration order; first region (sorted by access
  // latency from the NPU pool) with space left.
  std::vector<double> remaining(regions.size());
  std::vector<std::size_t> region_order(regions.size());
  const UnitPool* npu_pool = nullptr;
  for (const auto& pool : pools_) {
    if (pool.kind == lnic::UnitKind::kNpuCore) npu_pool = &pool;
  }
  for (std::size_t r = 0; r < regions.size(); ++r) {
    remaining[r] = usable_bytes(*profile_->graph.node(regions[r]).memory(), options);
    region_order[r] = r;
  }
  std::sort(region_order.begin(), region_order.end(), [&](std::size_t a, std::size_t b) {
    const double la = npu_pool != nullptr ? access_cycles(*npu_pool, regions[a]) : 0.0;
    const double lb = npu_pool != nullptr ? access_cycles(*npu_pool, regions[b]) : 0.0;
    return la < lb;
  });

  for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
    const double need = static_cast<double>(fn.state_objects[s].total_bytes());
    bool placed = false;
    for (const std::size_t r : region_order) {
      if (remaining[r] < need) continue;
      remaining[r] -= need;
      mapping.state_region[s] = regions[r];
      placed = true;
      break;
    }
    if (!placed) {
      return make_error(ErrorCode::kInfeasible,
                        strf("greedy: state '%s' fits no region", fn.state_objects[s].name.c_str()));
    }
    // Account access cost against the chosen region.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      mapping.objective += access_term(*this, nodes[i], pools_[mapping.node_pool[i]], s, mapping.state_region[s], fn);
    }
  }
  return mapping;
}

Result<Mapping> Mapper::repair(const DataflowGraph& graph, const CostHints& hints, const Mapping& previous,
                               const MapOptions& options) const {
  CLARA_TRACE_SCOPE("mapping/repair");
  const cir::Function& fn = *graph.function();
  const auto& nodes = graph.nodes();
  const auto regions = state_regions();
  const std::size_t n_states = fn.state_objects.size();

  if (previous.pool_sig.empty() || previous.node_pool.size() != nodes.size() ||
      previous.state_region.size() != n_states) {
    return make_error(ErrorCode::kInternal, "repair: previous mapping does not match this dataflow graph");
  }
  obs::metrics().counter("ilp/repairs").inc();

  // Re-associate the previous mapping's pool indices with this (faulted)
  // profile's pools by signature; a pool whose every member went offline
  // has no match and displaces its nodes.
  std::vector<int> old_to_new(previous.pool_sig.size(), -1);
  for (std::size_t op = 0; op < previous.pool_sig.size(); ++op) {
    const auto& sig = previous.pool_sig[op];
    for (std::size_t p = 0; p < pools_.size(); ++p) {
      if (pools_[p].kind == sig.kind && pools_[p].pipeline_stage == sig.pipeline_stage &&
          pools_[p].match_action == sig.match_action) {
        old_to_new[op] = static_cast<int>(p);
        break;
      }
    }
  }

  // Displacement, phase 1: a node survives when its pool still exists
  // and remains feasible for it.
  Pins pins(graph);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t op = previous.node_pool[i];
    if (op >= old_to_new.size()) {
      return make_error(ErrorCode::kInternal, "repair: previous mapping references an unknown pool");
    }
    const int np = old_to_new[op];
    if (np >= 0 && pool_feasible(nodes[i], pools_[np])) pins.pool[i] = np;
  }

  // Displacement, phase 2: a derated pool may no longer carry its pinned
  // demand under Θ — free every node of an over-committed pool and let
  // the solve spread them.
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    if (pinned_demand(*this, graph, hints, pins, p) > theta_budget(*this, pools_[p], options) + 1e-9) {
      std::replace(pins.pool.begin(), pins.pool.end(), static_cast<int>(p), -1);
    }
  }

  // States survive when their region is still online (region ids are
  // stable across faults, so membership in state_regions() decides).
  for (std::size_t s = 0; s < n_states; ++s) {
    const auto it = std::find(regions.begin(), regions.end(), previous.state_region[s]);
    if (it != regions.end()) pins.region[s] = static_cast<int>(it - regions.begin());
  }

  const auto displaced = static_cast<std::size_t>(std::count(pins.pool.begin(), pins.pool.end(), -1));

  // Final objective is evaluated directly from the assembled assignment
  // (identical to what the full model's objective expresses); the
  // reduced model only needs the *variable* terms, so pinned-constant
  // bookkeeping never leaks into the result. `resolved` counts the nodes
  // the solve placed afresh.
  auto finalize = [&](Mapping m, std::size_t resolved) {
    double objective = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& pool = pools_[m.node_pool[i]];
      objective += nodes[i].weight * node_cost_on_pool(nodes[i], pool, fn, hints);
      for (std::size_t s = 0; s < n_states; ++s) {
        if (m.state_region[s] == kInvalidNode) continue;
        objective += access_term(*this, nodes[i], pool, s, m.state_region[s], fn);
      }
    }
    m.objective = objective;
    m.pool_sig = pool_signatures(pools_);
    m.repaired = true;
    m.repair_displaced = resolved;
    obs::metrics().gauge("mapping/repair_displaced_nodes").set(static_cast<double>(resolved));
    obs::metrics().gauge("mapping/objective_cycles").set(m.objective);
    return m;
  };

  // Pinning can over-constrain (e.g. the only region a displaced state
  // fits is crowded by pinned states): fall back to a cold full solve,
  // still flagged repaired so callers know the fault path ran. It
  // re-places every node.
  auto full_resolve = [&]() -> Result<Mapping> {
    auto full = map(graph, hints, options);
    if (!full.ok()) return full.error();
    return finalize(std::move(full.value()), nodes.size());
  };

  if (displaced == 0 && std::find(pins.region.begin(), pins.region.end(), -1) == pins.region.end()) {
    // The fault missed every assignment: re-index onto the faulted
    // profile's pools and refresh the objective (pool composition may
    // have changed NUMA averages).
    Mapping m = previous;
    for (std::size_t i = 0; i < nodes.size(); ++i) m.node_pool[i] = static_cast<std::uint32_t>(pins.pool[i]);
    return finalize(std::move(m), 0);
  }

  // Reduced model: variables only for displaced nodes/states; pinned
  // assignments enter as objective coefficients and RHS reductions.
  auto placement = build_model(*this, graph, hints, options, regions, pins);
  if (!placement) return full_resolve();
  const ilp::Model& model = placement.value().model;

  const ilp::SolveOptions solve_options = options.to_solve_options();
  obs::metrics().gauge("mapping/repair_variables").set(static_cast<double>(model.num_vars()));
  const auto solution = ilp::solve_milp(model, solve_options);
  if (solution.status == ilp::SolveStatus::kInfeasible) return full_resolve();
  if (solution.status == ilp::SolveStatus::kLimit) {
    if (solution.degraded) {
      auto fallback = map_greedy(graph, hints, options);
      if (!fallback.ok()) return fallback.error();
      fallback.value().degraded = true;
      return finalize(std::move(fallback.value()), nodes.size());
    }
    return make_error(ErrorCode::kDeadline, "repair: ILP node budget exhausted without an integer solution");
  }
  if (solution.status == ilp::SolveStatus::kUnbounded) {
    return make_error(ErrorCode::kInternal, "repair ILP unbounded (model bug)");
  }
  return finalize(extract(placement.value(), solution, pins, regions), displaced);
}


std::string describe_mapping(const Mapping& mapping, const DataflowGraph& graph, const Mapper& mapper,
                             const cir::Function& fn) {
  std::string out;
  out += strf("Porting plan for '%s' on %s (%s mapper, est. %.0f cycles/pkt service)\n", fn.name.c_str(),
              mapper.profile().name.c_str(), mapping.greedy ? "greedy" : "ILP", mapping.objective);
  if (mapping.degraded) {
    out += "  NOTE: solver time budget expired — this plan is the best found, not a certified optimum\n";
  }
  if (mapping.repaired) {
    out += strf(
        "  NOTE: mapping repaired incrementally after resource loss — %zu node%s re-solved, "
        "unaffected assignments pinned\n",
        mapping.repair_displaced, mapping.repair_displaced == 1 ? "" : "s");
  }
  out += "  compute bindings:\n";
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const auto& node = graph.nodes()[i];
    const auto& pool = mapper.pools()[mapping.node_pool[i]];
    out += strf("    %-28s -> %-16s (weight %.3f)\n", node.label.c_str(), pool.name.c_str(), node.weight);
  }
  if (!fn.state_objects.empty()) {
    out += "  state placement:\n";
    for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
      const auto& obj = fn.state_objects[s];
      const auto& region = mapper.profile().graph.node(mapping.state_region[s]);
      out += strf("    %-28s -> %-16s (%s)\n", obj.name.c_str(), region.name.c_str(),
                  format_bytes(obj.total_bytes()).c_str());
    }
  }
  // Hand-tuning hints mirroring the paper's examples.
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const auto& node = graph.nodes()[i];
    const auto& pool = mapper.pools()[mapping.node_pool[i]];
    for (const auto& site : node.vcalls) {
      if (site.v == cir::VCall::kLpmLookup && pool.kind == lnic::UnitKind::kLpmEngine) {
        out += "  hint: route LPM through the match-action engine and enable the flow cache\n";
      }
      if (site.v == cir::VCall::kCsum && pool.kind == lnic::UnitKind::kChecksumAccel) {
        out += "  hint: use the ingress checksum unit instead of NPU software checksum\n";
      }
      if (site.v == cir::VCall::kCsum && pool.kind == lnic::UnitKind::kNpuCore) {
        out += "  hint: checksum runs in NPU software here; consider restructuring to reach the accelerator\n";
      }
    }
  }
  return out;
}

}  // namespace clara::mapping
