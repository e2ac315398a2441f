#include "workload/tracegen.hpp"

#include <bit>
#include <mutex>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace clara::workload {

namespace {

/// Largest flow count whose table the memo keeps, so no request can pin
/// a large one (132 MiB of Zipf table at the 2^24-flow cap).
constexpr std::uint32_t kMemoFlows = 65'536;

/// Each flow's protocol. Protocol is a flow invariant, but the profile's
/// tcp fraction is a *packet* fraction; under Zipf skew a handful of flows
/// carry most packets, so per-flow coin flips would miss the target
/// badly. Greedy balancing over the popularity mass keeps the
/// packet-weighted TCP share on target, and draws nothing.
std::vector<std::uint8_t> balance_protocols(const ZipfSampler& zipf, double tcp_fraction) {
  std::vector<std::uint8_t> proto(zipf.size());
  double mass_total = 0.0;
  double mass_tcp = 0.0;
  for (std::size_t f = 0; f < proto.size(); ++f) {
    const double mass = zipf.pmf(f);
    const bool tcp = (mass_tcp + mass / 2.0) < tcp_fraction * (mass_total + mass);
    proto[f] = tcp ? 6 : 17;
    mass_total += mass;
    mass_tcp += tcp ? mass : 0.0;  // + 0.0 leaves a non-negative sum as it is
  }
  return proto;
}

/// The seed-free part of a flow table: the Zipf table of (flows, alpha)
/// and each flow's protocol under tcp_fraction.
struct FlowShape {
  std::shared_ptr<const ZipfSampler> zipf;
  std::shared_ptr<const std::vector<std::uint8_t>> proto;
};

/// The flow shape of a profile. It depends on (flows, alpha, tcp) only,
/// and most clients vary only the seed, so the last shape small enough to
/// keep is shared, immutable, by every later trace of its triple; one
/// that differs only in tcp reuses its Zipf table.
FlowShape flow_shape(const WorkloadProfile& profile) {
  static std::mutex mutex;
  static FlowShape last;
  static double last_tcp = 0.0;
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  FlowShape shape;
  if (profile.flows <= kMemoFlows) {
    const std::lock_guard lock(mutex);
    if (last.zipf && last.zipf->size() == profile.flows && same(last.zipf->alpha(), profile.zipf_alpha)) {
      if (same(last_tcp, profile.tcp_fraction)) return last;
      shape.zipf = last.zipf;
    }
  }
  if (!shape.zipf) shape.zipf = std::make_shared<const ZipfSampler>(profile.flows, profile.zipf_alpha);
  shape.proto = std::make_shared<const std::vector<std::uint8_t>>(balance_protocols(*shape.zipf, profile.tcp_fraction));
  if (profile.flows <= kMemoFlows) {
    const std::lock_guard lock(mutex);
    last = shape;
    last_tcp = profile.tcp_fraction;
  }
  return shape;
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

Generator::Generator(const WorkloadProfile& profile) : profile_(profile), rng_(profile.seed) {
  const FlowShape shape = flow_shape(profile);
  zipf_ = shape.zipf;
  const std::vector<std::uint8_t>& proto = *shape.proto;
  flows_.resize(profile.flows);
  for (std::uint32_t f = 0; f < profile.flows; ++f) {
    Flow& flow = flows_[f];
    flow.proto = proto[f];
    flow.started = false;
    flow.src_ip = static_cast<std::uint32_t>(rng_.next_u64());
    flow.dst_ip = 0x0a000000u | (f & 0xffffffu);  // 10.x.y.z service VIPs
    flow.src_port = static_cast<std::uint16_t>(rng_.uniform(1024, 65535));
    flow.dst_port = static_cast<std::uint16_t>(rng_.chance(0.5) ? 80 : 443);
  }
}

Trace Generator::start_trace() const {
  static auto& generated = obs::metrics().counter("workload/traces_generated");
  generated.inc();
  Trace trace;
  trace.profile = profile_;
  trace.packets.resize(profile_.packets);
  return trace;
}

Trace generate_trace(const WorkloadProfile& profile) {
  return Generator(profile).collect([](const PacketMeta&) {});
}

}  // namespace clara::workload
