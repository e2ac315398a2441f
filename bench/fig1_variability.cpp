// Figure 1 — Performance variability of five network functions on a
// Netronome SmartNIC: 2-4 implementation/workload variants per NF with
// identical core logic, latencies normalized against the fastest
// variant. The paper observes spreads up to 13.8x. This bench runs every
// variant on the simulator substrate (Figure 1 is a hardware-measurement
// motivation figure; Clara is not involved).
#include "bench_util.hpp"

namespace clara::bench {
namespace {

struct Variant {
  std::string nf;
  std::string label;
  double latency = 0.0;
};

void run_nat(std::vector<Variant>& out) {
  const auto trace = make_trace("tcp=0.8 flows=10000 payload=800 pps=60000 packets=20000");
  for (const bool accel : {true, false}) {
    const auto stats = nf::simulate("nat", trace, {.csum_accel = accel}).value();
    out.push_back({"NAT", accel ? "csum-accel" : "csum-software", stats.mean_latency()});
  }
}

void run_dpi(std::vector<Variant>& out) {
  for (const int payload : {200, 700, 1400}) {
    const auto trace = make_trace(strf("payload=%d pps=60000 packets=20000", payload));
    const auto stats = nf::simulate("dpi", trace).value();
    out.push_back({"DPI", strf("%dB-packets", payload), stats.mean_latency()});
  }
}

void run_fw(std::vector<Variant>& out) {
  // State in different memory locations x flow distributions (the paper's
  // firewall variants). A uniform distribution over many flows defeats
  // the EMEM cache; a skewed one keeps the hot set resident.
  const struct {
    nicsim::MemLevel level;
    const char* dist;
    const char* label;
  } kVariants[] = {
      {nicsim::MemLevel::kCtm, "zipf=1.1 flows=2000", "ctm/skewed"},
      {nicsim::MemLevel::kImem, "zipf=1.1 flows=2000", "imem/skewed"},
      {nicsim::MemLevel::kEmem, "zipf=1.1 flows=2000", "emem/skewed"},
      {nicsim::MemLevel::kEmem, "zipf=0.0 flows=200000", "emem/uniform"},
  };
  const auto fw = nf::build_fw_nf({.conn_entries = 262144});  // 16 MiB worth of slots
  for (const auto& variant : kVariants) {
    const auto trace =
        make_trace(strf("tcp=1.0 %s payload=300 pps=60000 packets=30000", variant.dist));
    const nicsim::MemLevel levels[] = {variant.level, nicsim::MemLevel::kCtm};
    out.push_back({"FW", variant.label, nf::simulate("firewall", fw, levels, trace).value().mean_latency()});
  }
}

void run_lpm(std::vector<Variant>& out) {
  // Rule-count x flow-cache variants.
  const auto trace = make_trace("flows=3000 zipf=1.2 payload=300 pps=60000 packets=20000");
  const nf::NfEntry& lpm = *nf::find_nf("lpm");
  for (const std::uint64_t rules : {1000ull, 2000ull}) {
    for (const bool fc : {true, false}) {
      const auto routes = nf::build_lpm_nf({.rules = rules});
      const auto stats = nf::simulate(lpm.name, routes, lpm.placement, trace, {.flow_cache = fc}).value();
      out.push_back({"LPM", strf("%llu-rules/%s", (unsigned long long)rules, fc ? "flow-cache" : "no-cache"),
                     stats.mean_latency()});
    }
  }
}

void run_hh(std::vector<Variant>& out) {
  // Varying packet rates (the paper's HH variants). With 224 hardware
  // threads the device only shows rate sensitivity near its limits, so
  // the sweep approaches the ingress-hub service bound.
  const auto hh = nf::build_hh_nf({.counters = 1 << 20});
  const nicsim::MemLevel emem[] = {nicsim::MemLevel::kEmem};
  for (const double pps : {60e3, 16e6, 19.5e6}) {
    const auto trace =
        make_trace(strf("flows=200000 zipf=0.3 payload=300 pps=%.0f packets=40000 arrivals=poisson", pps));
    const auto stats = nf::simulate("heavy-hitter", hh, emem, trace).value();
    out.push_back({"HH", strf("%.0fkpps", pps / 1000.0), stats.mean_latency()});
  }
}

}  // namespace
}  // namespace clara::bench

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Figure 1: latency variability of five NFs (simulated Netronome)",
         "2-4 variants per NF, same core logic; normalized spread up to ~13.8x");

  std::vector<Variant> variants;
  run_nat(variants);
  run_dpi(variants);
  run_fw(variants);
  run_lpm(variants);
  run_hh(variants);

  // Normalize within each NF against its fastest variant.
  std::map<std::string, double> fastest;
  for (const auto& v : variants) {
    auto [it, inserted] = fastest.try_emplace(v.nf, v.latency);
    if (!inserted) it->second = std::min(it->second, v.latency);
  }

  TextTable table({"NF", "variant", "latency (cycles)", "normalized"});
  double max_ratio = 1.0;
  for (const auto& v : variants) {
    const double ratio = v.latency / fastest[v.nf];
    max_ratio = std::max(max_ratio, ratio);
    table.add_row({v.nf, v.label, fmt(v.latency), fmt2(ratio) + "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nmax within-NF spread: %.1fx (paper: up to 13.8x)\n", max_ratio);
  return 0;
}
