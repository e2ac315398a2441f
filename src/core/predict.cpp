#include "core/predict.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <functional>
#include <utility>

#include "cir/builder.hpp"
#include "cir/interp.hpp"
#include "obs/trace.hpp"
#include "passes/costmodel.hpp"

namespace clara::core {

using passes::CostHints;
using passes::DataflowGraph;
namespace keys = lnic::keys;

namespace {

/// Answers vcalls from the class's representative packet and a flow
/// model: hash tables keyed by flow hit exactly when the flow is not
/// new (the workload model the paper calls "simulate the execution for
/// the set of packets").
class ModelHandler final : public cir::VCallHandler {
 public:
  explicit ModelHandler(const cir::Function& fn) : fn_(fn) {}

  /// Points the model at the class the next run replays.
  void set_class(const PacketClass& cls) { cls_ = &cls; }

  std::uint64_t handle(cir::VCall v, std::span<const std::uint64_t> args) override {
    using cir::VCall;
    const PacketClass& cls = *cls_;
    switch (v) {
      case VCall::kGetHdr: {
        const auto field = static_cast<cir::HdrField>(args[0]);
        using cir::HdrField;
        switch (field) {
          case HdrField::kProto: return cls.proto;
          case HdrField::kSrcIp: return cls.rep.src_ip;
          case HdrField::kDstIp: return cls.rep.dst_ip;
          case HdrField::kSrcPort: return cls.rep.src_port;
          case HdrField::kDstPort: return cls.rep.dst_port;
          case HdrField::kTcpFlags: return cls.syn ? cir::kTcpFlagSyn : 0;
          case HdrField::kPayloadLen: return static_cast<std::uint64_t>(cls.payload());
          case HdrField::kPktLen: return static_cast<std::uint64_t>(cls.frame_len());
          case HdrField::kFlowHash: return cls.rep.flow_hash();
        }
        return 0;
      }
      case VCall::kTableLookup: {
        const auto& state = fn_.state_objects[args[0]];
        if (state.pattern == cir::StatePattern::kHashTable) return cls.new_flow ? 0 : 1;
        return 1;
      }
      case VCall::kMeter:
        return 1;  // conforming
      case VCall::kCsum:
        return 0xbeef;
      default:
        return 0;
    }
  }

 private:
  const cir::Function& fn_;
  const PacketClass* cls_ = nullptr;
};

/// Dense indices for u32 keys in first-seen order, so a count per key is
/// a flat vector. Open addressing with linear probing; any u32 is a key
/// (trace files carry arbitrary flow ids), and the table doubles when half
/// full, so `expected` sizes it but does not bound it.
class KeyIndex {
 public:
  explicit KeyIndex(std::size_t expected) { resize(std::bit_ceil(std::max<std::size_t>(16, 2 * expected))); }

  /// The index of `key`; a key not seen before takes the next one, size() - 1.
  std::uint32_t operator()(std::uint32_t key) {
    for (std::size_t slot = home(key);; slot = (slot + 1) & mask_) {
      if (slots_[slot].index == 0) {
        slots_[slot] = {key, ++size_};
        if (2 * size_ > slots_.size()) resize(2 * slots_.size());
        return size_ - 1;
      }
      if (slots_[slot].key == key) return slots_[slot].index - 1;
    }
  }
  [[nodiscard]] std::uint32_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t index = 0;  // the key's index + 1; 0 marks an empty slot
  };

  /// Fibonacci hashing: the top bits of key × 2^64/φ.
  [[nodiscard]] std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void resize(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.index == 0) continue;
      std::size_t slot = home(s.key);
      while (slots_[slot].index != 0) slot = (slot + 1) & mask_;
      slots_[slot] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace

std::string PacketClass::name() const {
  // The payload as printf's %.0f spells it: to_chars with fixed format
  // and precision 0 is defined as that conversion in the C locale, ties
  // to even included.
  std::string out = proto == 6 ? "tcp" : "udp";
  if (syn) out += "+syn";
  if (new_flow) out += "+new";
  out += "/p";
  char digits[32];
  const auto end = std::to_chars(digits, digits + sizeof digits, payload(), std::chars_format::fixed, 0).ptr;
  out.append(digits, end);
  return out;
}

double flow_cache_capacity(const lnic::NicProfile& nic) {
  return nic.params.try_scalar(keys::kFlowCacheCapacity).value_or(0.0);
}

EmemWorkingSet emem_working_set(const cir::Function& fn, const mapping::Mapping& mapping,
                                const lnic::NicProfile& profile, const WorkloadSummary& workload, double base) {
  EmemWorkingSet ws;
  ws.bytes = base;
  const double flows = static_cast<double>(workload.distinct_flows);
  for (std::size_t s = 0; s < fn.state_objects.size(); ++s) {
    const auto* mem = profile.graph.node(mapping.state_region[s]).memory();
    if (mem == nullptr || mem->kind != lnic::MemKind::kEmem) continue;
    const auto& obj = fn.state_objects[s];
    double active = static_cast<double>(obj.total_bytes());
    if (obj.pattern == cir::StatePattern::kHashTable) {
      active = std::min(active, flows * static_cast<double>(obj.entry_bytes));
    }
    ws.bytes += active;
  }
  // Spilled packet tails join the contended working set.
  const double residency = profile.params.scalar(keys::kCtmPacketResidency);
  if (residency > 0.0 && workload.mean_payload + 54.0 > residency) {
    ws.tail_pool = 1024.0 * 2048.0;
    ws.bytes += ws.tail_pool;
  }
  return ws;
}

WorkloadSummary summarize(const workload::Trace& trace, const lnic::NicProfile& nic,
                          std::size_t payload_buckets) {
  CLARA_TRACE_SCOPE("core/summarize");
  WorkloadSummary out;
  out.profile = trace.profile;
  out.packets = trace.packets.size();
  out.flow_cache_capacity = flow_cache_capacity(nic);
  out.payload_buckets = payload_buckets;

  // Payload range and sum, packets per flow, and which packet opens its
  // flow — in packet order, so every sum matches a plain scan.
  std::uint16_t lo = 0xffff, hi = 0;
  double payload_sum = 0.0;
  const std::size_t max_flows = std::min<std::size_t>(trace.packets.size(), trace.profile.flows);
  KeyIndex flow_index(max_flows);
  std::vector<std::uint64_t> flow_packets;  // by flow index
  flow_packets.reserve(max_flows);
  std::vector<bool> opens_flow(trace.packets.size());
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const auto& p = trace.packets[i];
    lo = std::min(lo, p.payload_len);
    hi = std::max(hi, p.payload_len);
    payload_sum += p.payload_len;
    const std::uint32_t flow = flow_index(p.flow_id);
    if (flow == flow_packets.size()) flow_packets.push_back(0);
    opens_flow[i] = flow_packets[flow]++ == 0;
  }
  out.distinct_flows = flow_index.size();
  if (out.packets > 0) out.mean_payload = payload_sum / static_cast<double>(out.packets);

  CostHints& hints = out.hints;
  hints.avg_payload = out.mean_payload;
  hints.params["payload_len"] = hints.avg_payload;
  hints.params["pkt_len"] = hints.avg_payload + 54.0;

  // Flow-cache hit rate: coverage of the top-capacity flows, less one
  // compulsory miss per cached flow.
  const double capacity = out.flow_cache_capacity;
  if (capacity > 0.0 && out.packets > 0) {
    // The sum of the top counts does not depend on their order.
    const auto top = std::min<std::size_t>(static_cast<std::size_t>(capacity), flow_packets.size());
    std::nth_element(flow_packets.begin(), flow_packets.begin() + static_cast<std::ptrdiff_t>(top),
                     flow_packets.end(), std::greater<>());
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < top; ++i) covered += flow_packets[i];
    const double total = static_cast<double>(out.packets);
    hints.flow_cache_hit_rate = std::max(0.0, (static_cast<double>(covered) - static_cast<double>(top)) / total);
  } else {
    hints.flow_cache_hit_rate = 0.0;
  }

  // Packet classes: protocol, SYN, flow novelty, payload bucket.
  const double width = hi > lo ? static_cast<double>(hi - lo) / static_cast<double>(payload_buckets) : 1.0;
  // Two protocols, SYN and flow novelty per bucket, in a generated trace.
  const std::size_t max_classes = std::min(trace.packets.size(), 8 * payload_buckets);
  KeyIndex class_index(max_classes);
  std::vector<std::pair<std::uint32_t, PacketClass>> classes;  // by class index
  classes.reserve(max_classes);
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const auto& p = trace.packets[i];
    const bool new_flow = opens_flow[i];
    auto bucket = static_cast<std::uint32_t>((p.payload_len - lo) / width);
    if (bucket >= payload_buckets) bucket = static_cast<std::uint32_t>(payload_buckets) - 1;
    const std::uint32_t key = p.proto | (p.is_syn() ? 1u << 8 : 0) | (new_flow ? 1u << 9 : 0) | (bucket << 16);
    const std::uint32_t index = class_index(key);
    if (index == classes.size()) {
      classes.emplace_back(
          key, PacketClass{.proto = p.proto, .syn = p.is_syn(), .new_flow = new_flow, .bucket = bucket, .rep = p});
    }
    PacketClass& cls = classes[index].second;
    ++cls.count;
    cls.payload_sum += p.payload_len;
  }
  // Ascending class key, as a consumer iterating the summary expects.
  std::sort(classes.begin(), classes.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
  out.classes.reserve(classes.size());
  for (auto& [key, cls] : classes) out.classes.push_back(std::move(cls));
  return out;
}

Result<Prediction> predict(const cir::Function& fn, const DataflowGraph& graph, const mapping::Mapping& mapping,
                           const mapping::Mapper& mapper, const WorkloadSummary& workload,
                           const PredictOptions& options) {
  CLARA_TRACE_SCOPE("predict/run");
  if (workload.packets == 0) return make_error("predict: empty trace");
  const auto& profile = mapper.profile();
  if (workload.flow_cache_capacity != flow_cache_capacity(profile) ||
      workload.payload_buckets != options.payload_buckets) {
    return make_error(ErrorCode::kInternal,
                      "predict: workload summarized for another flow cache or payload bucket count");
  }
  const passes::Prices& prices = mapper.prices();
  const CostHints& hints = workload.hints;

  // --- EMEM cache hit-rate estimate (working set vs. capacity) ----------
  Bytes emem_cache_capacity = 0;
  for (const NodeId region : profile.graph.memory_regions()) {
    const auto* mem = profile.graph.node(region).memory();
    if (mem->kind == lnic::MemKind::kEmem) emem_cache_capacity = mem->cache_capacity;
  }
  const EmemWorkingSet ws =
      emem_working_set(fn, mapping, profile, workload, options.foreign_cache_pressure_bytes);
  double hr_emem = 1.0;
  if (ws.bytes > 0.0 && emem_cache_capacity > 0) {
    hr_emem = std::min(1.0, static_cast<double>(emem_cache_capacity) / ws.bytes);
  }
  // Spilled tails recycle a pool of buffers: when the pool fits in what
  // the state leaves of the cache, tail reads mostly hit.
  double hr_tail = 0.0;
  if (ws.tail_pool > 0.0 && emem_cache_capacity > 0) {
    const double state_ws = ws.bytes - ws.tail_pool;
    hr_tail = std::clamp((static_cast<double>(emem_cache_capacity) - state_ws) / ws.tail_pool, 0.0, 1.0);
  }
  if (!options.model_emem_cache) {
    hr_emem = 0.0;
    hr_tail = 0.0;
  }

  // Interference slicing scales available parallelism.
  const double share = std::clamp(options.nic_share, 0.05, 1.0);

  // --- Class-independent prices -------------------------------------------
  // Everything here depends only on the NIC, the mapping and the summary,
  // so it is read from the mapper's price table or computed once per
  // call. The class loop below reads these values back with every
  // floating-point operation's operands and order unchanged.
  const auto& pools = mapper.pools();
  const double residency = prices.ctm_packet_residency;
  const double ctm = prices.mem_read_ctm;
  const double emem_hit = prices.emem_cache_hit;
  const double emem_read = prices.mem_read_emem;
  const double tail_lat = hr_tail * emem_hit + (1.0 - hr_tail) * emem_read;

  // Packet-byte access price with the cache-aware tail model: bytes in
  // the CTM head at CTM latency, spilled tail bytes at the estimated
  // tail hit rate.
  auto pkt_access_cycles = [&](double frame) {
    if (residency <= 0.0) return emem_hit;
    if (frame <= residency) return ctm;
    const double head_frac = residency / frame;
    return head_frac * ctm + (1.0 - head_frac) * tail_lat;
  };

  // State-access prices per (pool, state object), at the object's placed
  // region: `base` prices every cacheable access as a miss (the WCET
  // bound), `eff` applies the EMEM hit-rate estimate.
  struct StatePrice {
    double base = 0.0;
    double eff = 0.0;
    lnic::MemKind kind = lnic::MemKind::kEmem;
    bool cached = false;
  };
  const std::size_t states = fn.state_objects.size();
  std::vector<StatePrice> state_prices(pools.size() * states);
  for (std::size_t p = 0; p < pools.size(); ++p) {
    for (std::size_t s = 0; s < states; ++s) {
      const NodeId region = mapping.state_region[s];
      const auto* mem = profile.graph.node(region).memory();
      StatePrice& price = state_prices[p * states + s];
      price.base = mapper.access_cycles(pools[p], region);
      price.kind = mem->kind;
      price.cached = mem->kind == lnic::MemKind::kEmem && mem->cache_capacity > 0;
      price.eff = price.cached ? hr_emem * emem_hit + (1.0 - hr_emem) * price.base : price.base;
    }
  }
  auto state_price = [&](std::size_t pool, std::uint32_t state) -> const StatePrice& {
    return state_prices[pool * states + state];
  };

  // Each node's instruction-mix cycles on its assigned pool.
  std::vector<double> mix_cycles(graph.size());
  for (const auto& node : graph.nodes()) {
    mix_cycles[node.id] = passes::mix_compute_cycles(node.mix, pools[mapping.node_pool[node.id]].kind, prices);
  }

  // Worst case: the flow cache misses too.
  passes::CostHints worst_hints = hints;
  worst_hints.flow_cache_hit_rate = 0.0;

  // --- Breakdown attribution helpers --------------------------------------
  // Each mirrors the corresponding cost term above exactly, splitting it
  // across obs::Component buckets so the per-class components sum to the
  // class's base latency by construction.
  using obs::Component;
  auto add_pkt_access_bd = [&](obs::BreakdownMeans& bd, double n, double frame) {
    if (n <= 0.0) return;
    if (residency <= 0.0) {
      bd.add(Component::kEmemCacheHit, n * emem_hit);
      return;
    }
    if (frame <= residency) {
      bd.add(Component::kMemCtm, n * ctm);
      return;
    }
    const double head_frac = residency / frame;
    bd.add(Component::kMemCtm, n * head_frac * ctm);
    const double tail = n * (1.0 - head_frac);
    bd.add(Component::kEmemCacheHit, tail * hr_tail * emem_hit);
    bd.add(Component::kEmemCacheMiss, tail * (1.0 - hr_tail) * emem_read);
  };
  auto add_state_bd = [&](obs::BreakdownMeans& bd, double n, const StatePrice& price) {
    if (n <= 0.0) return;
    if (price.cached) {
      bd.add(Component::kEmemCacheHit, n * hr_emem * emem_hit);
      bd.add(Component::kEmemCacheMiss, n * (1.0 - hr_emem) * price.base);
      return;
    }
    switch (price.kind) {
      case lnic::MemKind::kLocal: bd.add(Component::kMemLocal, n * price.base); break;
      case lnic::MemKind::kCtm: bd.add(Component::kMemCtm, n * price.base); break;
      case lnic::MemKind::kImem: bd.add(Component::kMemImem, n * price.base); break;
      case lnic::MemKind::kEmem: bd.add(Component::kEmemCacheMiss, n * price.base); break;
    }
  };
  auto unit_component = [](lnic::UnitKind kind) {
    switch (kind) {
      case lnic::UnitKind::kChecksumAccel: return Component::kCsumAccel;
      case lnic::UnitKind::kCryptoAccel: return Component::kCryptoAccel;
      case lnic::UnitKind::kLpmEngine: return Component::kLpmEngine;
      case lnic::UnitKind::kNpuCore:
      case lnic::UnitKind::kHeaderEngine: break;
    }
    return Component::kCompute;
  };

  // --- Per-class costing --------------------------------------------------
  // Only class-dependent terms are computed here: block and vcall counts
  // from the interpreter, and the class's frame-size packet-access prices.
  // One interpreter replays every class's representative in turn.
  const auto& classes = workload.classes;
  const double total_packets = static_cast<double>(workload.packets);

  struct ClassCost {
    double base = 0.0;              // latency without queueing
    double worst = 0.0;             // all cache accesses priced as misses
    std::vector<double> pool_use;   // pool -> service cycles (queueable)
    obs::BreakdownMeans bd;         // component attribution of `base`
  };
  std::vector<ClassCost> costs(classes.size());
  std::vector<double> pool_demand(pools.size(), 0.0);  // cycles/packet avg

  const double hub_service = prices.hub_service;
  const double ingress_base = prices.ingress_base;
  const double ingress_per_byte = prices.ingress_per_byte;
  const double spill_per_byte = prices.spill_per_byte;
  const double flow_cache_hit = prices.flow_cache_hit;

  ModelHandler handler(fn);
  cir::Interpreter interp(fn, handler);
  const cir::ExecTrace& et = interp.trace();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const PacketClass& cls = classes[c];
    handler.set_class(cls);
    if (auto status = interp.execute(); !status) {
      return make_error("predict: interpretation failed: " + status.error().message);
    }

    ClassCost& cost = costs[c];
    cost.pool_use.assign(pools.size(), 0.0);
    const double frame = cls.frame_len();
    const double pkt_access = pkt_access_cycles(frame);
    const double pkt_access_worst = passes::packet_access_cycles(frame, frame - 1.0, prices);
    cost.base += hub_service + ingress_base + ingress_per_byte * frame;
    if (residency > 0.0 && frame > residency) cost.base += spill_per_byte * (frame - residency);
    cost.worst = cost.base;
    cost.bd.add(Component::kIngress, cost.base);

    // Node bodies: instruction mixes, packet accesses, explicit state ops.
    for (const auto& node : graph.nodes()) {
      const std::uint64_t execs = et.block_counts[node.block];
      if (execs == 0) continue;
      const std::size_t pool_idx = mapping.node_pool[node.id];
      const double mix = mix_cycles[node.id];
      const auto packet_ops = static_cast<double>(node.mix.packet_loads + node.mix.packet_stores);
      double per_exec = mix;
      per_exec += packet_ops * pkt_access;
      for (const auto& [s, n] : node.mix.state_reads) {
        per_exec += static_cast<double>(n) * state_price(pool_idx, s).eff;
      }
      for (const auto& [s, n] : node.mix.state_writes) {
        per_exec += static_cast<double>(n) * state_price(pool_idx, s).eff;
      }
      const double cycles = static_cast<double>(execs) * per_exec;
      cost.base += cycles;
      const auto n_execs = static_cast<double>(execs);
      cost.bd.add(Component::kCompute, n_execs * mix);
      add_pkt_access_bd(cost.bd, n_execs * packet_ops, frame);
      for (const auto& [s, n] : node.mix.state_reads) {
        add_state_bd(cost.bd, n_execs * static_cast<double>(n), state_price(pool_idx, s));
      }
      for (const auto& [s, n] : node.mix.state_writes) {
        add_state_bd(cost.bd, n_execs * static_cast<double>(n), state_price(pool_idx, s));
      }
      double per_exec_worst = mix;
      per_exec_worst += packet_ops * pkt_access_worst;
      for (const auto& [s, n] : node.mix.state_reads) {
        per_exec_worst += static_cast<double>(n) * state_price(pool_idx, s).base;
      }
      for (const auto& [s, n] : node.mix.state_writes) {
        per_exec_worst += static_cast<double>(n) * state_price(pool_idx, s).base;
      }
      cost.worst += static_cast<double>(execs) * per_exec_worst;
      cost.pool_use[pool_idx] += static_cast<double>(execs) * mix;
    }

    // Vcall events with their concrete arguments.
    for (const auto& event : et.vcalls) {
      const std::uint32_t node_id = graph.node_of(event.block, event.instr);
      if (node_id == ~0u) continue;
      const std::size_t pool_idx = mapping.node_pool[node_id];
      const auto& pool = pools[pool_idx];
      const auto args = et.args_of(event);
      const cir::StateObject* state = nullptr;
      std::uint32_t state_idx = ~0u;
      if (cir::vcall_takes_state(event.v) && !args.empty()) {
        state_idx = static_cast<std::uint32_t>(args[0]);
        state = &fn.state_objects[state_idx];
      }
      double arg = hints.avg_payload;
      if (event.v == cir::VCall::kCsum || event.v == cir::VCall::kCrypto ||
          event.v == cir::VCall::kPayloadScan) {
        arg = static_cast<double>(args[0]);
      }
      const bool use_fc = event.v != cir::VCall::kLpmLookup || (args.size() >= 3 && args[2] != 0);
      double service = passes::vcall_compute_cycles(event.v, pool.kind, arg, state, prices, hints, use_fc);
      cost.bd.add(event.v == cir::VCall::kEmit ? Component::kEgress : unit_component(pool.kind), service);
      if (event.v == cir::VCall::kPayloadScan) {
        service += std::ceil(arg / 64.0) * pkt_access;
        add_pkt_access_bd(cost.bd, std::ceil(arg / 64.0), frame);
      }
      if (event.v == cir::VCall::kEmit) {
        service += hub_service;  // egress hub
        cost.bd.add(Component::kEgress, hub_service);
      }
      cost.base += service;
      double worst_service =
          passes::vcall_compute_cycles(event.v, pool.kind, arg, state, prices, worst_hints, use_fc);
      // Deepest match-action walk: per-key walk depth varies around the
      // microbenchmarked mean curve; allow ~15% for the worst key.
      if (event.v == cir::VCall::kLpmLookup) worst_service *= 1.15;
      if (event.v == cir::VCall::kPayloadScan) worst_service += std::ceil(arg / 64.0) * pkt_access_worst;
      if (event.v == cir::VCall::kEmit) worst_service += hub_service;
      cost.worst += worst_service;

      if (state_idx != ~0u) {
        const double accesses = passes::vcall_state_accesses(event.v, pool.kind, state);
        const StatePrice& price = state_price(pool_idx, state_idx);
        cost.base += accesses * price.eff;
        cost.worst += accesses * price.base;
        add_state_bd(cost.bd, accesses, price);
      }

      // Queueable share: LPM DRAM walks overlap across threads, so only
      // the SRAM front-end occupies the engine.
      double queueable = service;
      if (event.v == cir::VCall::kLpmLookup && pool.kind == lnic::UnitKind::kLpmEngine) {
        queueable = flow_cache_hit;
      }
      cost.pool_use[pool_idx] += queueable;
    }

    const double fraction = static_cast<double>(cls.count) / total_packets;
    for (std::size_t p = 0; p < pools.size(); ++p) pool_demand[p] += fraction * cost.pool_use[p];
  }

  // --- Queueing (Θ) and throughput ----------------------------------------
  const double clock = prices.clock_hz;
  const double pps = workload.profile.pps;
  const double lambda_cycles = pps / clock;  // packets per cycle

  Prediction pred;
  pred.emem_cache_hit_rate = hr_emem;
  pred.flow_cache_hit_rate = hints.flow_cache_hit_rate;

  std::vector<double> pool_wait(pools.size(), 0.0);
  double best_throughput = 1e18;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    if (pool_demand[p] <= 0.0) continue;
    const double servers = std::max(1.0, pools[p].parallelism * share);
    const double rho = lambda_cycles * pool_demand[p] / servers;
    double wait = 0.0;
    if (options.model_queueing) {
      if (rho < 1.0) {
        wait = (pool_demand[p] / servers) * rho / (2.0 * (1.0 - rho));  // M/D/c approximation
      } else {
        wait = 1e9;  // saturated
      }
    }
    pool_wait[p] = wait;
    pred.loads.push_back({pools[p].name, rho, wait});
    const double cap_pps = servers * clock / pool_demand[p];
    if (cap_pps < best_throughput) {
      best_throughput = cap_pps;
      pred.bottleneck = pools[p].name;
    }
  }
  // The ingress hub serves every packet once; it caps throughput for
  // NFs light enough that no compute pool binds first.
  const double hub_cap_pps = clock / std::max(1.0, hub_service);
  if (hub_cap_pps < best_throughput) {
    best_throughput = hub_cap_pps;
    pred.bottleneck = "ingress-hub";
  }
  pred.throughput_pps = best_throughput == 1e18 ? 0.0 : best_throughput;

  // --- Aggregate ------------------------------------------------------------
  double mean = 0.0;
  double worst_case = 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    double latency = costs[c].base;
    double worst = costs[c].worst;
    obs::BreakdownMeans class_bd = costs[c].bd;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (costs[c].pool_use[p] > 0.0) {
        latency += pool_wait[p];
        class_bd.add(obs::Component::kQueueWait, pool_wait[p]);
        worst += 3.0 * pool_wait[p];  // queue tail allowance
      }
    }
    worst_case = std::max(worst_case, worst);
    const double fraction = static_cast<double>(classes[c].count) / total_packets;
    mean += fraction * latency;
    pred.breakdown.add_scaled(class_bd, fraction);

    ClassProfile cp;
    cp.name = classes[c].name();
    cp.fraction = fraction;
    cp.payload_len = classes[c].payload();
    cp.latency_cycles = latency;
    cp.tcp = classes[c].proto == 6;
    cp.syn = classes[c].syn;
    cp.new_flow = classes[c].new_flow;
    pred.classes.push_back(std::move(cp));
  }
  std::sort(pred.classes.begin(), pred.classes.end(),
            [](const ClassProfile& a, const ClassProfile& b) { return a.fraction > b.fraction; });

  pred.mean_latency_cycles = mean;
  pred.mean_latency_us = mean / clock * 1e6;
  pred.worst_case_cycles = worst_case;
  return pred;
}

}  // namespace clara::core
