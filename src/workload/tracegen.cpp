#include "workload/tracegen.hpp"

#include <bit>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace clara::workload {

namespace {

/// Largest flow count whose Zipf table the memo keeps, so no request can
/// pin a large table (132 MiB at the 2^24-flow cap).
constexpr std::uint32_t kMemoFlows = 65'536;

/// The Zipf table of (flows, alpha). A table depends on those two values
/// only, and most clients vary only the seed, so the last table small
/// enough to keep is shared, immutable, by every later trace of its pair.
std::shared_ptr<const ZipfSampler> zipf_table(std::uint32_t flows, double alpha) {
  static std::mutex mutex;
  static std::shared_ptr<const ZipfSampler> last;
  if (flows > kMemoFlows) return std::make_shared<const ZipfSampler>(flows, alpha);
  {
    const std::lock_guard lock(mutex);
    if (last && last->size() == flows && std::bit_cast<std::uint64_t>(last->alpha()) ==
                                             std::bit_cast<std::uint64_t>(alpha)) {
      return last;
    }
  }
  auto table = std::make_shared<const ZipfSampler>(flows, alpha);
  const std::lock_guard lock(mutex);
  last = table;
  return table;
}

}  // namespace

std::uint32_t Trace::distinct_flows() const {
  std::unordered_set<std::uint32_t> seen;
  for (const auto& p : packets) seen.insert(p.flow_id);
  return static_cast<std::uint32_t>(seen.size());
}

double Trace::mean_payload() const {
  if (packets.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : packets) sum += p.payload_len;
  return sum / static_cast<double>(packets.size());
}

double Trace::tcp_fraction() const {
  if (packets.empty()) return 0.0;
  std::size_t tcp = 0;
  for (const auto& p : packets) tcp += p.is_tcp() ? 1 : 0;
  return static_cast<double>(tcp) / static_cast<double>(packets.size());
}

Trace generate_trace(const WorkloadProfile& profile) {
  static auto& generated = obs::metrics().counter("workload/traces_generated");
  generated.inc();
  Trace trace;
  trace.profile = profile;
  trace.packets.reserve(profile.packets);

  Rng rng(profile.seed);
  const auto table = zipf_table(profile.flows, profile.zipf_alpha);
  const ZipfSampler& zipf = *table;

  // Per-flow invariants: 5-tuple and protocol are properties of the
  // flow, not the packet.
  struct FlowInfo {
    std::uint32_t src_ip, dst_ip;
    std::uint16_t src_port, dst_port;
    std::uint8_t proto;
    bool started = false;  // has the SYN been emitted yet
  };
  std::vector<FlowInfo> flows(profile.flows);
  // Protocol is a flow invariant, but the profile's tcp fraction is a
  // *packet* fraction; under Zipf skew a handful of flows carry most
  // packets, so per-flow coin flips would miss the target badly. Greedy
  // balancing over the popularity mass keeps the packet-weighted TCP
  // share on target.
  double mass_total = 0.0;
  double mass_tcp = 0.0;
  for (std::uint32_t f = 0; f < profile.flows; ++f) {
    const double mass = zipf.pmf(f);
    const bool tcp = (mass_tcp + mass / 2.0) < profile.tcp_fraction * (mass_total + mass);
    flows[f].proto = tcp ? 6 : 17;
    mass_total += mass;
    if (tcp) mass_tcp += mass;
    flows[f].src_ip = static_cast<std::uint32_t>(rng.next_u64());
    flows[f].dst_ip = 0x0a000000u | (f & 0xffffffu);  // 10.x.y.z service VIPs
    flows[f].src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    flows[f].dst_port = static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 443);
  }

  const double ns_per_packet = 1e9 / profile.pps;
  double now_ns = 0.0;

  for (std::uint64_t i = 0; i < profile.packets; ++i) {
    const auto flow_id = static_cast<std::uint32_t>(zipf.sample(rng));
    FlowInfo& flow = flows[flow_id];

    PacketMeta pkt;
    pkt.flow_id = flow_id;
    pkt.src_ip = flow.src_ip;
    pkt.dst_ip = flow.dst_ip;
    pkt.src_port = flow.src_port;
    pkt.dst_port = flow.dst_port;
    pkt.proto = flow.proto;
    if (flow.proto == 6 && !flow.started) {
      pkt.tcp_flags = kFlagSyn;
      flow.started = true;
    }
    pkt.payload_len = profile.payload_min == profile.payload_max
                          ? profile.payload_min
                          : static_cast<std::uint16_t>(rng.uniform(profile.payload_min, profile.payload_max));

    if (profile.arrivals == ArrivalProcess::kPoisson) {
      now_ns += rng.exponential(ns_per_packet);
    } else {
      now_ns += ns_per_packet;
    }
    pkt.arrival_ns = static_cast<std::uint64_t>(now_ns);

    trace.packets.push_back(pkt);
  }
  return trace;
}

}  // namespace clara::workload
