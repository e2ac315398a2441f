// Ablation: predictor model components (DESIGN.md §3).
//
// Two knobs the predictor can turn off:
//  * the EMEM cache hit-rate model (off => every EMEM access priced at
//    full DRAM latency);
//  * idiom pattern matching (off => byte loops priced as general NPU
//    instruction streams instead of vcall curves).
// For each, prediction error vs. the simulator with the knob on/off.
#include <cmath>

#include "bench_util.hpp"

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Ablation: predictor components (EMEM cache model, pattern matching)",
         "each abstraction earns its keep: error grows when disabled");

  core::Analyzer analyzer(lnic::netronome_agilio_cx());

  // --- EMEM cache model, on a cache-friendly NAT workload ----------------
  {
    const auto trace = make_trace("tcp=0.8 flows=3000 zipf=1.1 payload=300 pps=60000 packets=20000");
    const auto nat = nf::build_nat_nf();
    core::AnalyzeOptions with;
    core::AnalyzeOptions without;
    without.predict.model_emem_cache = false;
    const auto a = analyze_or_die(analyzer, nat, trace, with);
    const auto b = analyze_or_die(analyzer, nat, trace, without);

    const auto levels = nf::mapped_levels(analyzer.profile(), a.mapping.state_region);
    const auto stats = nf::simulate("nat", nat, levels, trace).value();

    TextTable out({"predictor", "predicted (cyc)", "actual (cyc)", "error"});
    out.add_row({"cache model ON", fmt(a.prediction.mean_latency_cycles), fmt(stats.mean_latency()),
                 pct(std::abs(a.prediction.mean_latency_cycles - stats.mean_latency()) / stats.mean_latency())});
    out.add_row({"cache model OFF", fmt(b.prediction.mean_latency_cycles), fmt(stats.mean_latency()),
                 pct(std::abs(b.prediction.mean_latency_cycles - stats.mean_latency()) / stats.mean_latency())});
    std::printf("NAT, skewed 3k-flow workload (hot table lives in the EMEM cache):\n%s\n", out.render().c_str());
  }

  // --- Pattern matching, on DPI -------------------------------------------
  {
    const auto trace = make_trace("payload=1000 pps=60000 packets=15000");
    const auto dpi = nf::build_dpi_nf();
    core::AnalyzeOptions with;
    core::AnalyzeOptions without;
    without.stages = core::PipelineStages::no_patterns();
    const auto a = analyze_or_die(analyzer, dpi, trace, with);
    const auto b = analyze_or_die(analyzer, dpi, trace, without);

    const auto stats = nf::simulate("dpi", trace).value();

    TextTable out({"predictor", "predicted (cyc)", "actual (cyc)", "error"});
    out.add_row({"pattern matching ON", fmt(a.prediction.mean_latency_cycles), fmt(stats.mean_latency()),
                 pct(std::abs(a.prediction.mean_latency_cycles - stats.mean_latency()) / stats.mean_latency())});
    out.add_row({"pattern matching OFF", fmt(b.prediction.mean_latency_cycles), fmt(stats.mean_latency()),
                 pct(std::abs(b.prediction.mean_latency_cycles - stats.mean_latency()) / stats.mean_latency())});
    std::printf("DPI, 1000 B payloads (scan loop vs instruction-stream pricing):\n%s", out.render().c_str());
  }
  return 0;
}
