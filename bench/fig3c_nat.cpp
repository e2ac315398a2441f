// Figure 3(c) — NAT: predicted vs. actual latency over packet payload
// size 200->1400 B. The paper's curve rises from ~5,000 to ~11,000
// cycles (datapath per-byte costs plus the checksum), with ~7%
// prediction inaccuracy.
#include <algorithm>

#include "bench_util.hpp"

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Figure 3(c): NAT predicted vs actual latency over payload size",
         "latency (cycles) rises roughly linearly 200->1400 B (~5k->11k in the paper); error ~7%");

  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto nat = nf::build_nat_nf();

  TextTable table({"payload (B)", "predicted (cyc)", "actual (cyc)", "error"});
  double worst_error = 0.0;
  for (int payload = 200; payload <= 1400; payload += 200) {
    const auto trace = make_trace(strf("tcp=0.8 flows=10000 payload=%d pps=60000 packets=20000", payload));
    const auto analysis = analyze_or_die(analyzer, nat, trace);

    const auto levels = nf::mapped_levels(analyzer.profile(), analysis.mapping.state_region);
    const auto stats = nf::simulate("nat", nat, levels, trace).value();

    const double predicted = analysis.prediction.mean_latency_cycles;
    const double actual = stats.mean_latency();
    const double error = std::abs(predicted - actual) / actual;
    worst_error = std::max(worst_error, error);
    table.add_row({strf("%d", payload), fmt(predicted), fmt(actual), pct(error)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nworst-case prediction error: %.1f%% (paper reports 7%% for NAT)\n", worst_error * 100.0);
  return 0;
}
