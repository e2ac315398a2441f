// The logical SmartNIC model (LNIC) — paper §3.1.
//
// An LNIC is a graph ⟨V,E⟩. Nodes are typed: compute units (general-purpose
// NPU cores, header engines, domain-specific accelerators), memory regions
// (with sizes and access latencies), and switching hubs (NIC switches and
// traffic managers, parameterized by queue capacity and discipline).
// Edges are memory buses (compute↔memory, weighted to capture NUMA),
// memory-hierarchy links (memory↔memory, eviction/fetch direction), and
// unidirectional compute→compute edges describing staged/pipelined
// execution.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace clara::lnic {

/// What a compute unit is specialized for. The mapper uses this to decide
/// which dataflow nodes may be placed where, and the cost model selects
/// per-kind parameters.
enum class UnitKind {
  kNpuCore,        // general-purpose in-order network processor core
  kHeaderEngine,   // ingress parser / match-action header processing
  kChecksumAccel,  // L3/L4 checksum unit at the ingress datapath
  kCryptoAccel,    // AES / SHA engine
  kLpmEngine,      // match/action longest-prefix-match engine (flow cache front-end)
};

const char* to_string(UnitKind kind);

/// Memory region levels. Names follow the Netronome hierarchy since that
/// is the paper's reference backend; other profiles reuse the same levels
/// with their own sizes/latencies (e.g., an ARM SoC maps L2 -> kCtm,
/// DRAM -> kEmem).
enum class MemKind {
  kLocal,  // per-core local memory / register file
  kCtm,    // per-island Cluster Target Memory (SRAM)
  kImem,   // shared internal memory
  kEmem,   // external DRAM (optionally fronted by a cache)
};

const char* to_string(MemKind kind);

enum class QueueDiscipline { kFifo, kPriority };

struct ComputeUnit {
  UnitKind kind = UnitKind::kNpuCore;
  /// Island (cluster) this unit belongs to; -1 for island-less units such
  /// as shared accelerators.
  int island = -1;
  /// Hardware threads. A packet is bound to a single thread for its whole
  /// lifetime (Netronome behaviour, paper §3.2).
  int threads = 1;
  /// Position in the pipeline ordering; mapping must not send a packet
  /// "backwards" across stages (paper §3.4). Units that can be visited at
  /// any point (e.g., NPUs in run-to-completion mode) share a stage.
  int pipeline_stage = 0;
  /// For kHeaderEngine units: true when the engine is a full match-action
  /// stage (P4-style pipelines) that can host table lookups and header
  /// arithmetic; false for fixed-function parsers (Netronome's ingress
  /// parser), which only serve vcall_parse.
  bool match_action = false;
  /// Fault state (docs/robustness.md). An offline unit is excluded from
  /// mapping pools; derate scales its effective service capacity
  /// (0 < derate <= 1, 1.0 = nominal). Graph structure and NodeIds are
  /// unchanged so existing mappings stay addressable for repair.
  bool offline = false;
  double derate = 1.0;
};

struct MemoryRegion {
  MemKind kind = MemKind::kEmem;
  Bytes capacity = 0;
  /// Island scoping: a CTM belongs to one island; -1 means globally
  /// shared (IMEM/EMEM).
  int island = -1;
  /// Size of a cache fronting this region (0 = uncached). The Netronome
  /// EMEM has a 3 MB cache (paper §3.2).
  Bytes cache_capacity = 0;
  /// Fault state: an offline region is excluded from state placement.
  bool offline = false;
};

struct SwitchHub {
  std::size_t queue_capacity = 256;  // packets
  QueueDiscipline discipline = QueueDiscipline::kFifo;
};

enum class NodeType { kCompute, kMemory, kSwitch };

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  std::variant<ComputeUnit, MemoryRegion, SwitchHub> info;

  [[nodiscard]] NodeType type() const {
    switch (info.index()) {
      case 0: return NodeType::kCompute;
      case 1: return NodeType::kMemory;
      default: return NodeType::kSwitch;
    }
  }
  [[nodiscard]] const ComputeUnit* compute() const { return std::get_if<ComputeUnit>(&info); }
  [[nodiscard]] const MemoryRegion* memory() const { return std::get_if<MemoryRegion>(&info); }
  [[nodiscard]] const SwitchHub* hub() const { return std::get_if<SwitchHub>(&info); }
};

enum class EdgeKind {
  kMemAccess,  // compute <-> memory; weight multiplies base access latency (NUMA)
  kHierarchy,  // memory <-> memory; eviction/fetch direction
  kPipeline,   // compute -> compute; staged execution order
  kSwitchLink, // hub <-> anything; packet steering path
};

struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeKind kind = EdgeKind::kMemAccess;
  /// NUMA weight for kMemAccess (latency multiplier, >= 1); link weight
  /// otherwise.
  double weight = 1.0;
};

/// The LNIC graph. Construction is additive; `validate()` checks the
/// structural invariants once a profile is assembled.
class Graph {
 public:
  NodeId add_compute(std::string name, ComputeUnit unit);
  NodeId add_memory(std::string name, MemoryRegion region);
  NodeId add_switch(std::string name, SwitchHub hub);
  void add_edge(NodeId from, NodeId to, EdgeKind kind, double weight = 1.0);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  [[nodiscard]] std::vector<NodeId> compute_units() const;
  [[nodiscard]] std::vector<NodeId> memory_regions() const;
  [[nodiscard]] std::vector<NodeId> switch_hubs() const;
  [[nodiscard]] std::vector<NodeId> units_of_kind(UnitKind kind) const;
  [[nodiscard]] std::optional<NodeId> find_by_name(std::string_view name) const;

  /// NUMA weight of the access edge unit->region, or nullopt when the
  /// unit cannot reach that region at all. The first kMemAccess edge
  /// added between the two nodes wins, in either orientation; answered
  /// from an index add_edge() keeps, not by scanning edges().
  [[nodiscard]] std::optional<double> access_weight(NodeId unit, NodeId region) const;

  /// Marks every compute unit / memory region whose name equals `name`
  /// or starts with it (prefix match, so "npu0_" takes out a whole
  /// island) offline. Returns the number of nodes marked; kUnknownCall
  /// when nothing matches.
  Result<int> mark_offline(std::string_view name);

  /// Scales the effective capacity of matching compute units to
  /// `fraction` of nominal (0 < fraction <= 1); same matching rules as
  /// mark_offline. Memory regions cannot be derated, only failed.
  Result<int> derate_units(std::string_view name, double fraction);

  /// True if there is a pipeline/switch path from `from` to `to`
  /// (transitively) using only kPipeline and kSwitchLink edges.
  [[nodiscard]] bool pipeline_reachable(NodeId from, NodeId to) const;

  /// Structural invariants:
  ///  - edge endpoints are valid node ids;
  ///  - kMemAccess edges connect compute to memory;
  ///  - kHierarchy edges connect memory to memory;
  ///  - kPipeline edges connect compute to compute and respect stage order;
  ///  - every compute unit can reach at least one memory region.
  [[nodiscard]] Status validate() const;

 private:
  NodeId add_node(std::string name, std::variant<ComputeUnit, MemoryRegion, SwitchHub> info);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  /// First kMemAccess weight per unordered node pair, sorted by the
  /// pair's key (smaller id in the high half). A flat vector, so copying
  /// a profile stays one allocation per member.
  std::vector<std::pair<std::uint64_t, double>> access_index_;
};

}  // namespace clara::lnic
