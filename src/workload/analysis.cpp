#include "workload/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/strings.hpp"

namespace clara::workload {

TraceAnalysis analyze_trace(const Trace& trace, std::size_t top_k) {
  TraceAnalysis out;
  out.packets = trace.size();
  if (trace.packets.empty()) return out;

  std::unordered_map<std::uint32_t, FlowSummary> flows;
  std::uint64_t tcp = 0, syn = 0;
  double payload_sum = 0.0;
  out.min_payload = 0xffff;
  Accumulator inter_arrival;
  std::uint64_t prev_ns = trace.packets.front().arrival_ns;

  for (const auto& pkt : trace.packets) {
    auto& flow = flows[pkt.flow_id];
    flow.flow_id = pkt.flow_id;
    ++flow.packets;
    flow.bytes += pkt.frame_len();
    if (pkt.is_tcp()) {
      ++tcp;
      if (pkt.is_syn()) ++syn;
    }
    payload_sum += pkt.payload_len;
    out.min_payload = std::min(out.min_payload, pkt.payload_len);
    out.max_payload = std::max(out.max_payload, pkt.payload_len);
    if (pkt.arrival_ns > prev_ns) inter_arrival.add(static_cast<double>(pkt.arrival_ns - prev_ns));
    prev_ns = pkt.arrival_ns;
  }

  const auto total = static_cast<double>(out.packets);
  out.distinct_flows = static_cast<std::uint32_t>(flows.size());
  out.tcp_fraction = static_cast<double>(tcp) / total;
  out.syn_fraction = tcp > 0 ? static_cast<double>(syn) / static_cast<double>(tcp) : 0.0;
  out.mean_payload = payload_sum / total;
  if (inter_arrival.count() > 1 && inter_arrival.mean() > 0.0) {
    out.arrival_cv = inter_arrival.stddev() / inter_arrival.mean();
  }
  // The rate needs only a last arrival after 0, however few gaps precede it.
  const double span_s = static_cast<double>(trace.packets.back().arrival_ns) / 1e9;
  if (span_s > 0.0) out.observed_pps = total / span_s;

  // Rank flows by packet count.
  std::vector<FlowSummary> ranked;
  ranked.reserve(flows.size());
  for (auto& [id, flow] : flows) {
    flow.share = static_cast<double>(flow.packets) / total;
    ranked.push_back(flow);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const FlowSummary& a, const FlowSummary& b) { return a.packets > b.packets; });

  const auto concentration = [&](double pct) {
    const auto n = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(ranked.size() * pct)));
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < n && i < ranked.size(); ++i) covered += ranked[i].packets;
    return static_cast<double>(covered) / total;
  };
  out.top1pct_share = concentration(0.01);
  out.top10pct_share = concentration(0.10);

  // Zipf exponent: least-squares slope of log(freq) vs log(rank) over
  // the head of the distribution (tail ranks are quantization noise).
  const std::size_t fit_n = std::min<std::size_t>(ranked.size(), 200);
  if (fit_n >= 3) {
    std::vector<double> xs, ys;
    for (std::size_t i = 0; i < fit_n; ++i) {
      if (ranked[i].packets == 0) break;
      xs.push_back(std::log(static_cast<double>(i + 1)));
      ys.push_back(std::log(static_cast<double>(ranked[i].packets)));
    }
    if (xs.size() >= 3) {
      const auto fit = linear_fit(xs, ys);
      out.zipf_alpha = std::max(0.0, -fit.slope);
    }
  }

  ranked.resize(std::min(top_k, ranked.size()));
  out.top_flows = std::move(ranked);
  return out;
}

std::string TraceAnalysis::render() const {
  std::string out;
  out += strf("packets        : %s\n", format_count(packets).c_str());
  out += strf("distinct flows : %s\n", format_count(distinct_flows).c_str());
  out += strf("tcp fraction   : %.3f (SYN share of TCP: %.3f)\n", tcp_fraction, syn_fraction);
  out += strf("payload        : mean %.1f B, range [%u, %u]\n", mean_payload, min_payload, max_payload);
  if (observed_pps > 0.0) {
    out += strf("rate           : %.0f pps (inter-arrival CV %.2f — %s)\n", observed_pps, arrival_cv,
                arrival_cv < 0.3 ? "paced" : arrival_cv < 1.3 ? "Poisson-like" : "bursty");
  }
  out += strf("skew           : zipf alpha ~ %.2f; top 1%%/10%% of flows carry %.1f%%/%.1f%% of packets\n",
              zipf_alpha, top1pct_share * 100.0, top10pct_share * 100.0);
  if (!top_flows.empty()) {
    out += "top flows      :\n";
    for (const auto& flow : top_flows) {
      out += strf("  flow %-8u %8s pkts  %8s bytes  %5.2f%%\n", flow.flow_id,
                  format_count(flow.packets).c_str(), format_count(flow.bytes).c_str(), flow.share * 100.0);
    }
  }
  return out;
}

WorkloadProfile profile_from_trace(const Trace& trace) {
  const auto analysis = analyze_trace(trace, 0);
  WorkloadProfile profile;
  profile.tcp_fraction = analysis.tcp_fraction;
  profile.flows = std::max<std::uint32_t>(1, analysis.distinct_flows);
  // The skew and the rate are estimates, so a trace generated at a range's
  // edge can measure past it (a fitted zipf=8 slope, a Poisson count over its
  // span); each is held to its spec range.
  profile.zipf_alpha = std::min(analysis.zipf_alpha, kMaxZipf);
  profile.payload_min = analysis.min_payload;
  profile.payload_max = analysis.max_payload;
  if (analysis.observed_pps > 0.0) profile.pps = std::clamp(analysis.observed_pps, kMinPps, kMaxPps);
  profile.packets = analysis.packets;
  profile.arrivals = analysis.arrival_cv > 0.5 ? ArrivalProcess::kPoisson : ArrivalProcess::kDeterministic;
  return profile;
}

}  // namespace clara::workload
