// Figure 3(a) — LPM: predicted vs. actual latency as the match-action
// table grows from 5,000 to 30,000 entries. The paper's curve grows
// roughly linearly to ~1,200 K cycles at 30 k entries, with ~12%
// prediction inaccuracy. Workload per §4: 60 kpps, average over the
// trace (shortened from 1M packets for runtime).
#include <algorithm>
#include <map>
#include <vector>

#include "bench_util.hpp"

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Figure 3(a): LPM predicted vs actual latency over table size",
         "latency (K cycles) grows ~linearly with entries, 5k->30k; paper error ~12%");

  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  const auto trace = make_trace("tcp=0.8 flows=5000 payload=300 pps=60000 packets=30000");

  TextTable table({"entries", "predicted (Kcyc)", "actual (Kcyc)", "error"});
  double worst_error = 0.0;
  for (std::uint64_t entries = 5000; entries <= 30000; entries += 5000) {
    const auto nf_fn = nf::build_lpm_nf({.rules = entries, .use_flow_cache = false});
    const auto analysis = analyze_or_die(analyzer, nf_fn, trace);

    const auto levels = nf::mapped_levels(analyzer.profile(), analysis.mapping.state_region);
    const auto stats = nf::simulate("lpm", nf_fn, levels, trace, {.flow_cache = false}).value();

    const double predicted = analysis.prediction.mean_latency_cycles;
    const double actual = stats.mean_latency();
    const double error = std::abs(predicted - actual) / actual;
    worst_error = std::max(worst_error, error);
    table.add_row({strf("%llu", (unsigned long long)entries), fmt1(predicted / 1000.0), fmt1(actual / 1000.0),
                   pct(error)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nworst-case prediction error: %.1f%% (paper reports 12%% for LPM)\n", worst_error * 100.0);
  return 0;
}
