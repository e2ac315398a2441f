#include "lnic/lnic.hpp"

#include <algorithm>
#include <queue>

#include "common/strings.hpp"

namespace clara::lnic {

const char* to_string(UnitKind kind) {
  switch (kind) {
    case UnitKind::kNpuCore: return "npu";
    case UnitKind::kHeaderEngine: return "header-engine";
    case UnitKind::kChecksumAccel: return "checksum-accel";
    case UnitKind::kCryptoAccel: return "crypto-accel";
    case UnitKind::kLpmEngine: return "lpm-engine";
  }
  return "?";
}

const char* to_string(MemKind kind) {
  switch (kind) {
    case MemKind::kLocal: return "local";
    case MemKind::kCtm: return "ctm";
    case MemKind::kImem: return "imem";
    case MemKind::kEmem: return "emem";
  }
  return "?";
}

NodeId Graph::add_node(std::string name, std::variant<ComputeUnit, MemoryRegion, SwitchHub> info) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, std::move(name), std::move(info)});
  return id;
}

NodeId Graph::add_compute(std::string name, ComputeUnit unit) { return add_node(std::move(name), unit); }
NodeId Graph::add_memory(std::string name, MemoryRegion region) { return add_node(std::move(name), region); }
NodeId Graph::add_switch(std::string name, SwitchHub hub) { return add_node(std::move(name), hub); }

namespace {

using AccessIndex = std::vector<std::pair<std::uint64_t, double>>;

/// Orientation-free key of a node pair in Graph::access_index_.
std::uint64_t pair_key(NodeId a, NodeId b) {
  const auto [lo, hi] = std::minmax(a, b);
  return static_cast<std::uint64_t>(lo) << 32 | hi;
}

/// The first index entry whose key is not below `key`.
AccessIndex::const_iterator seek(const AccessIndex& index, std::uint64_t key) {
  return std::lower_bound(index.begin(), index.end(), key,
                          [](const auto& entry, std::uint64_t k) { return entry.first < k; });
}

}  // namespace

void Graph::add_edge(NodeId from, NodeId to, EdgeKind kind, double weight) {
  edges_.push_back(Edge{from, to, kind, weight});
  if (kind != EdgeKind::kMemAccess) return;
  const std::uint64_t key = pair_key(from, to);
  const auto it = seek(access_index_, key);
  if (it == access_index_.end() || it->first != key) access_index_.insert(it, {key, weight});
}

std::vector<NodeId> Graph::compute_units() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.type() == NodeType::kCompute) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Graph::memory_regions() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.type() == NodeType::kMemory) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Graph::switch_hubs() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.type() == NodeType::kSwitch) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Graph::units_of_kind(UnitKind kind) const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    const auto* cu = n.compute();
    if (cu != nullptr && cu->kind == kind) out.push_back(n.id);
  }
  return out;
}

std::optional<NodeId> Graph::find_by_name(std::string_view name) const {
  for (const auto& n : nodes_)
    if (n.name == name) return n.id;
  return std::nullopt;
}

std::optional<double> Graph::access_weight(NodeId unit, NodeId region) const {
  const std::uint64_t key = pair_key(unit, region);
  const auto it = seek(access_index_, key);
  if (it == access_index_.end() || it->first != key) return std::nullopt;
  return it->second;
}

Result<int> Graph::mark_offline(std::string_view name) {
  int marked = 0;
  for (auto& n : nodes_) {
    if (n.name != name && !starts_with(n.name, name)) continue;
    if (auto* cu = std::get_if<ComputeUnit>(&n.info)) {
      cu->offline = true;
      ++marked;
    } else if (auto* mr = std::get_if<MemoryRegion>(&n.info)) {
      mr->offline = true;
      ++marked;
    }
  }
  if (marked == 0) {
    return make_error(ErrorCode::kUnknownCall,
                      strf("no compute unit or memory region matches '%.*s'",
                           static_cast<int>(name.size()), name.data()));
  }
  return marked;
}

Result<int> Graph::derate_units(std::string_view name, double fraction) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    return make_error(ErrorCode::kParse,
                      strf("derate fraction must be in (0, 1], got %g", fraction));
  }
  int marked = 0;
  for (auto& n : nodes_) {
    if (n.name != name && !starts_with(n.name, name)) continue;
    if (auto* cu = std::get_if<ComputeUnit>(&n.info)) {
      cu->derate = fraction;
      ++marked;
    }
  }
  if (marked == 0) {
    return make_error(ErrorCode::kUnknownCall,
                      strf("no compute unit matches '%.*s'", static_cast<int>(name.size()),
                           name.data()));
  }
  return marked;
}

bool Graph::pipeline_reachable(NodeId from, NodeId to) const {
  if (from == to) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(from);
  seen[from] = true;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop();
    for (const auto& e : edges_) {
      if (e.kind != EdgeKind::kPipeline && e.kind != EdgeKind::kSwitchLink) continue;
      if (e.from != cur) continue;
      if (e.to == to) return true;
      if (!seen[e.to]) {
        seen[e.to] = true;
        frontier.push(e.to);
      }
    }
  }
  return false;
}

Status Graph::validate() const {
  for (const auto& e : edges_) {
    if (e.from >= nodes_.size() || e.to >= nodes_.size()) {
      return make_error(strf("edge references invalid node id (%u -> %u)", e.from, e.to));
    }
    const Node& a = nodes_[e.from];
    const Node& b = nodes_[e.to];
    switch (e.kind) {
      case EdgeKind::kMemAccess:
        if (a.type() != NodeType::kCompute || b.type() != NodeType::kMemory) {
          return make_error(strf("mem-access edge must be compute->memory: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        if (e.weight < 1.0) {
          return make_error(strf("mem-access NUMA weight must be >= 1: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        break;
      case EdgeKind::kHierarchy:
        if (a.type() != NodeType::kMemory || b.type() != NodeType::kMemory) {
          return make_error(strf("hierarchy edge must be memory->memory: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        break;
      case EdgeKind::kPipeline: {
        if (a.type() != NodeType::kCompute || b.type() != NodeType::kCompute) {
          return make_error(strf("pipeline edge must be compute->compute: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        if (a.compute()->pipeline_stage > b.compute()->pipeline_stage) {
          return make_error(strf("pipeline edge goes backwards across stages: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        break;
      }
      case EdgeKind::kSwitchLink:
        if (a.type() != NodeType::kSwitch && b.type() != NodeType::kSwitch) {
          return make_error(strf("switch-link edge must touch a switch hub: %s -> %s", a.name.c_str(), b.name.c_str()));
        }
        break;
    }
  }

  for (const auto& n : nodes_) {
    if (n.type() != NodeType::kCompute) continue;
    const bool has_memory = std::any_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
      return e.kind == EdgeKind::kMemAccess && e.from == n.id;
    });
    if (!has_memory) {
      return make_error(strf("compute unit '%s' cannot reach any memory region", n.name.c_str()));
    }
  }
  return {};
}

}  // namespace clara::lnic
