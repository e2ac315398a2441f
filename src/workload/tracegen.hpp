// Synthetic trace generation from an abstract workload profile.
//
// Substitutes for the datacenter pcap traces the paper's evaluation
// used (DESIGN.md §6): flow popularity is Zipf-distributed, the first
// packet of each TCP flow carries SYN, payload sizes draw uniformly from
// the profile's range, and arrivals follow the configured process.
// Generation is fully deterministic given the profile (including seed).
//
// One generator holds the draw sequence, and a consumer takes each
// packet as it is drawn: generate_trace collects them into a Trace, and
// core::summarize(profile, ...) summarizes them without keeping them.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "workload/packet.hpp"
#include "workload/profile.hpp"

namespace clara::workload {

struct Trace {
  std::vector<PacketMeta> packets;
  WorkloadProfile profile;

  [[nodiscard]] std::size_t size() const { return packets.size(); }

  /// Number of distinct flows actually present.
  [[nodiscard]] std::uint32_t distinct_flows() const;

  /// Mean payload length over the trace.
  [[nodiscard]] double mean_payload() const;

  /// Fraction of TCP packets.
  [[nodiscard]] double tcp_fraction() const;
};

/// The draws of one profile's trace. Construction draws the flow table
/// (each flow's 5-tuple and protocol); run() then draws each packet's
/// flow, payload and arrival, in trace order, and hands the packet to a
/// consumer. The sequence exists only here, so every consumer sees the
/// packets generate_trace would return.
class Generator {
 public:
  explicit Generator(const WorkloadProfile& profile);

  /// Draws every packet, calling sink(const PacketMeta&) on each in
  /// order. Once per generator: the draws consume its stream.
  template <class Sink>
  void run(Sink&& sink);

  /// run(), also writing every packet into the returned trace, which
  /// counts in workload/traces_generated.
  template <class Sink>
  Trace collect(Sink&& also);

  /// The packet of flow `flow_id` with the given draws: what run() hands
  /// its consumer for them.
  [[nodiscard]] PacketMeta packet(std::uint32_t flow_id, bool syn, std::uint16_t payload_len,
                                  std::uint64_t arrival_ns) const {
    const Flow& flow = flows_[flow_id];
    return {.flow_id = flow_id,
            .src_ip = flow.src_ip,
            .dst_ip = flow.dst_ip,
            .src_port = flow.src_port,
            .dst_port = flow.dst_port,
            .proto = flow.proto,
            .tcp_flags = syn ? kFlagSyn : std::uint8_t{0},
            .payload_len = payload_len,
            .arrival_ns = arrival_ns};
  }

 private:
  /// Per-flow invariants: 5-tuple and protocol are properties of the
  /// flow, not the packet.
  struct Flow {
    std::uint32_t src_ip, dst_ip;
    std::uint16_t src_port, dst_port;
    std::uint8_t proto;
    bool started;  // has the SYN been emitted yet
  };

  /// An empty trace of the profile sized for its packets, counted as
  /// generated.
  [[nodiscard]] Trace start_trace() const;

  WorkloadProfile profile_;
  Rng rng_;
  std::shared_ptr<const ZipfSampler> zipf_;
  std::vector<Flow> flows_;
};

template <class Sink>
void Generator::run(Sink&& sink) {
  const ZipfSampler& zipf = *zipf_;
  const bool ranged = profile_.payload_min != profile_.payload_max;
  const UniformInt payload(profile_.payload_min, profile_.payload_max);
  const bool poisson = profile_.arrivals == ArrivalProcess::kPoisson;
  const double ns_per_packet = 1e9 / profile_.pps;
  double now_ns = 0.0;
  for (std::uint64_t i = 0; i < profile_.packets; ++i) {
    const auto flow_id = static_cast<std::uint32_t>(zipf.sample(rng_));
    Flow& flow = flows_[flow_id];
    const bool syn = (flow.proto == 6) & !flow.started;  // no branch on either
    flow.started |= syn;
    const auto len = ranged ? static_cast<std::uint16_t>(payload(rng_)) : profile_.payload_min;
    now_ns += poisson ? rng_.exponential(ns_per_packet) : ns_per_packet;
    sink(packet(flow_id, syn, len, static_cast<std::uint64_t>(now_ns)));
  }
}

template <class Sink>
Trace Generator::collect(Sink&& also) {
  Trace trace = start_trace();
  PacketMeta* out = trace.packets.data();
  run([&](const PacketMeta& p) {
    *out++ = p;
    also(p);
  });
  return trace;
}

Trace generate_trace(const WorkloadProfile& profile);

}  // namespace clara::workload
