// Figure 3(b) — VNF chain (DPI, metering, header modification, flow
// statistics): predicted vs. actual latency over packet payload size
// 200->1400 B. The paper's curve grows with payload (the DPI scan
// dominates) with ~3% prediction inaccuracy.
#include <algorithm>

#include "bench_util.hpp"

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Figure 3(b): VNF chain predicted vs actual latency over payload size",
         "latency grows with payload (DPI scan dominates), 200->1400 B; paper error ~3%");

  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto vnf = nf::build_vnf_chain();

  TextTable table({"payload (B)", "predicted (Kcyc)", "actual (Kcyc)", "error"});
  double worst_error = 0.0;
  for (int payload = 200; payload <= 1400; payload += 200) {
    const auto trace = make_trace(strf("tcp=0.8 flows=4000 payload=%d pps=60000 packets=20000", payload));
    const auto analysis = analyze_or_die(analyzer, vnf, trace);

    const auto levels = nf::mapped_levels(analyzer.profile(), analysis.mapping.state_region);
    const auto stats = nf::simulate("vnf-chain", vnf, levels, trace).value();

    const double predicted = analysis.prediction.mean_latency_cycles;
    const double actual = stats.mean_latency();
    const double error = std::abs(predicted - actual) / actual;
    worst_error = std::max(worst_error, error);
    table.add_row({strf("%d", payload), fmt1(predicted / 1000.0), fmt1(actual / 1000.0), pct(error)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nworst-case prediction error: %.1f%% (paper reports 3%% for the VNF chain)\n",
              worst_error * 100.0);
  return 0;
}
