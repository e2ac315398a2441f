// Mapping dataflow graphs to the LNIC — paper §3.4.
//
// The mapper "mimics the role of a compiler": it lowers the CIR dataflow
// graph onto the parameterized LNIC by choosing, for every dataflow node,
// a compute-unit pool (Π constraints), and for every state object, a
// memory region (Γ constraints), subject to pipeline ordering, memory
// capacity, vcall/compute compatibility, and per-pool service capacity at
// the offered load (Θ). The objective minimizes expected per-packet
// cycles. Solved exactly with the in-tree branch-and-bound MILP; a
// greedy baseline exists for ablation.
//
// Identical compute units are aggregated into pools (all NPU cores form
// one pool with the summed thread parallelism): mapping is about *what
// kind of engine runs a node*, not which of eight interchangeable cores
// — and the aggregation removes ILP symmetry.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "passes/costmodel.hpp"
#include "passes/dataflow.hpp"

namespace clara::mapping {

struct UnitPool {
  std::string name;
  lnic::UnitKind kind = lnic::UnitKind::kNpuCore;
  int pipeline_stage = 0;
  bool match_action = false;
  /// Aggregate parallelism (hardware threads across members).
  double parallelism = 1.0;
  std::vector<NodeId> members;
  /// Member used for NUMA-weight lookups against memory regions.
  NodeId representative = kInvalidNode;
};

/// Groups the graph's compute units into pools by (kind, stage).
/// Offline units (fault state) never join a pool; derated units
/// contribute only their scaled parallelism.
std::vector<UnitPool> build_pools(const lnic::Graph& graph);

/// Pool identity recorded on a Mapping so a later repair() — against a
/// faulted profile whose pool list may have shrunk or shifted — can
/// re-associate pool indices by meaning rather than by position.
struct PoolSignature {
  lnic::UnitKind kind = lnic::UnitKind::kNpuCore;
  int pipeline_stage = 0;
  bool match_action = false;
  double parallelism = 0.0;
};

struct Mapping {
  /// Pool index per dataflow node.
  std::vector<std::uint32_t> node_pool;
  /// LNIC memory-region node id per state object.
  std::vector<NodeId> state_region;
  /// Estimated per-packet service cycles of the mapped NF (compute +
  /// state access terms; datapath constants excluded).
  double objective = 0.0;
  ilp::SolveStatus status = ilp::SolveStatus::kInfeasible;
  std::size_t ilp_nodes_explored = 0;
  /// Simplex pivots across all LP relaxations of the solve.
  std::size_t ilp_pivots = 0;
  /// Incumbent trajectory of the branch-and-bound search (how the best
  /// integer objective improved over explored nodes).
  std::vector<ilp::IncumbentStep> ilp_incumbents;
  bool greedy = false;
  /// True when the time budget expired before the solver proved
  /// optimality: the mapping is the best incumbent found (or the greedy
  /// baseline's when no incumbent existed). Propagates into Analysis and
  /// the report text.
  bool degraded = false;
  /// The solution's simplex basis, usable to warm-start an LP re-solve
  /// of the same model (ilp::LpOptions::warm_basis). Empty for greedy.
  std::vector<std::size_t> ilp_basis;
  /// Signatures of the mapper's pools at solve time (indexed like
  /// node_pool values); consumed by Mapper::repair().
  std::vector<PoolSignature> pool_sig;
  /// True when this mapping came out of Mapper::repair(): surviving
  /// assignments were pinned and only displaced nodes were re-solved.
  /// Propagates into Analysis and the report text like `degraded`.
  bool repaired = false;
  /// Dataflow nodes the repair had to re-solve: 0 when not repaired, or
  /// when the fault missed every assignment; every node when the repair
  /// fell back to a cold or greedy re-solve.
  std::size_t repair_displaced = 0;
};

/// Options shared by the ILP and greedy mappers.
struct MapOptions {
  /// Offered load used by the Θ service-capacity constraints.
  double pps = 60'000.0;
  /// Fraction of each CTM usable for state (the rest buffers packets).
  double ctm_state_fraction = 0.75;
  std::size_t max_ilp_nodes = 50'000;
  /// Wall-clock budget for the ILP solve in milliseconds (0 = none). On
  /// expiry map() returns the best incumbent — or the greedy baseline's
  /// result when none exists — flagged Mapping::degraded instead of
  /// failing.
  double time_budget_ms = 0.0;

  /// The one translation of these knobs into solver options: the node
  /// budget copies over, and a positive time_budget_ms
  /// becomes an absolute steady_clock deadline anchored at the call.
  /// Every solve site (map, repair) goes through here so the plumbing
  /// cannot drift.
  [[nodiscard]] ilp::SolveOptions to_solve_options() const;
};

/// The per-NIC view the mapper and the predictor price against: the
/// profile's unit pools and its price table, both built once here. It
/// keeps a pointer to `profile`, which must outlive it, and is immutable
/// after construction, so any number of threads may share one.
class Mapper {
 public:
  explicit Mapper(const lnic::NicProfile& profile);

  /// Optimal mapping via ILP. Fails when the NF cannot be placed at all
  /// (e.g. general-purpose compute on a NIC without cores) or when the
  /// Θ constraints are unsatisfiable at the offered load.
  Result<Mapping> map(const passes::DataflowGraph& graph, const passes::CostHints& hints,
                      const MapOptions& options = {}) const;

  /// First-fit greedy baseline: cheapest feasible pool per node,
  /// cheapest region with remaining capacity per state object. Ignores
  /// pipeline-order and service-capacity constraints (the ablation
  /// quantifies what that costs).
  Result<Mapping> map_greedy(const passes::DataflowGraph& graph, const passes::CostHints& hints,
                             const MapOptions& options = {}) const;

  /// Incremental repair after LNIC resource loss (DESIGN.md §13). This
  /// mapper is built on the *faulted* profile; `previous` is a mapping
  /// produced on the healthy twin. Assignments whose pool/region
  /// survived the fault are pinned — folded into the MILP as constants
  /// (objective coefficients, Γ/Π/Θ right-hand-side reductions) — and only
  /// displaced nodes and states get variables, so the re-solve is much
  /// cheaper than a cold map(); with nothing pinned the model is map()'s.
  /// Falls back to a full re-solve when pinning makes the model
  /// infeasible. The result is always flagged Mapping::repaired and
  /// counted in the `ilp/repairs` metric.
  Result<Mapping> repair(const passes::DataflowGraph& graph, const passes::CostHints& hints,
                         const Mapping& previous, const MapOptions& options = {}) const;

  [[nodiscard]] const std::vector<UnitPool>& pools() const { return pools_; }
  [[nodiscard]] const lnic::NicProfile& profile() const { return *profile_; }
  [[nodiscard]] const passes::Prices& prices() const { return prices_; }

  // -- Cost helpers shared with the predictor ------------------------------

  /// Compute-side cycles of one execution of the node on a pool
  /// (instruction mix, vcall services, packet-byte accesses; state
  /// accesses excluded).
  [[nodiscard]] double node_cost_on_pool(const passes::DfNode& node, const UnitPool& pool,
                                         const cir::Function& fn, const passes::CostHints& hints) const;

  /// The share of node_cost_on_pool that actually *occupies* the pool
  /// (used by the Θ service-capacity constraints and queue models): LPM
  /// DRAM walks are memory-latency-bound and overlap across requests, so
  /// on the LPM engine only the SRAM front-end counts.
  [[nodiscard]] double node_queueable_cost_on_pool(const passes::DfNode& node, const UnitPool& pool,
                                                   const cir::Function& fn,
                                                   const passes::CostHints& hints) const;

  /// Placement-dependent state accesses of one node execution against
  /// state object `state` when running on `kind` (explicit loads/stores
  /// plus vcall-implied probes).
  [[nodiscard]] static double node_state_accesses(const passes::DfNode& node, lnic::UnitKind kind,
                                                  std::uint32_t state, const cir::Function& fn);

  /// Cycles per access from the pool's representative to the region.
  [[nodiscard]] double access_cycles(const UnitPool& pool, NodeId region) const;

  /// True when the node's vcalls and instruction mix can run on `pool`.
  [[nodiscard]] bool pool_feasible(const passes::DfNode& node, const UnitPool& pool) const;

  /// Memory regions eligible for state placement (CTM and above).
  [[nodiscard]] std::vector<NodeId> state_regions() const;

 private:
  const lnic::NicProfile* profile_;
  std::vector<UnitPool> pools_;
  passes::Prices prices_;
};

/// Human-readable porting report: per-node unit bindings, state
/// placements, and hand-tuning hints (the "offloading hints" of paper
/// §6). This is what a developer would read before porting.
std::string describe_mapping(const Mapping& mapping, const passes::DataflowGraph& graph,
                             const Mapper& mapper, const cir::Function& fn);

}  // namespace clara::mapping
