// §6 extension — throughput prediction validation.
//
// The paper lists throughput prediction as future work ("capture core
// parallelism, queueing capacity and discipline, head-of-line
// blocking"). Clara's bottleneck analysis produces an idealized
// throughput bound per NF; this bench saturates the simulated device
// (offered load far above capacity) and compares the achieved rate
// against the prediction.
#include <chrono>
#include <utility>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Throughput: Clara's bottleneck bound vs simulator saturation",
         "idealized throughput estimation (paper §3.5/§6 extension)");

  core::analysis_cache().clear();  // defined cold start
  core::Analyzer analyzer(lnic::netronome_agilio_cx());

  // Each NF floods its hand port at the corpus hand placement.
  struct Case {
    const char* name;
    const char* nf;
    cir::Function fn;
  };
  std::vector<Case> cases;
  for (const auto& [name, nf_name] : {std::pair{"rewrite", "rewrite"}, std::pair{"dpi-1400B", "dpi"},
                                      std::pair{"nat", "nat"}, std::pair{"heavy-hitter", "heavy-hitter"}}) {
    cases.push_back({name, nf_name, nf::find_nf(nf_name)->build()});
  }

  // Each case is an independent shard: the analyze+flood pair runs
  // concurrently across cases via the sweep driver, with results written
  // to disjoint per-case slots (output order stays deterministic).
  struct Row {
    std::string predicted, bottleneck, achieved, ratio;
  };
  std::vector<Row> rows(cases.size());
  std::vector<core::SweepPoint> points(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    points[i].index = i;
    points[i].seed = parallel::shard_seed(42, i);
  }
  core::run_sweep(points, [&](const core::SweepPoint& point, core::SweepResult& result) {
    auto& c = cases[point.index];
    const int payload = std::string(c.name).find("1400") != std::string::npos ? 1400 : 300;
    // Predict at a feasible mapping rate; saturate the simulator.
    const auto predict_trace =
        make_trace(strf("payload=%d pps=60000 packets=5000 flows=5000", payload));
    core::AnalyzeOptions options;
    options.map.pps = 60'000;
    const auto analysis = analyze_or_die(analyzer, c.fn, predict_trace, options);

    const auto flood = make_trace(strf("payload=%d pps=40000000 packets=40000 flows=5000", payload));
    const auto stats = nf::simulate(c.nf, flood).value();

    rows[point.index] = {fmt(analysis.prediction.throughput_pps), analysis.prediction.bottleneck,
                         fmt(stats.achieved_pps),
                         fmt2(analysis.prediction.throughput_pps / stats.achieved_pps) + "x"};
    result.value = analysis.prediction.throughput_pps / stats.achieved_pps;
  });

  TextTable table({"NF", "predicted max pps", "bottleneck", "sim achieved pps", "ratio"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.add_row({cases[i].name, rows[i].predicted, rows[i].bottleneck, rows[i].achieved, rows[i].ratio});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(ratio near 1x = the bottleneck analysis found the real limiter;\n"
              " the ingress hub caps the device at ~20 Mpps regardless of NF)\n");

  // Warm re-pass: the same analyses against the now-populated cache —
  // what an interactive re-scan pays per iteration. Every ILP solve must
  // come out of the mapping cache.
  auto& solves = obs::metrics().counter("ilp/solves");
  const std::uint64_t solves_before = solves.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : cases) {
    const int payload = std::string(c.name).find("1400") != std::string::npos ? 1400 : 300;
    const auto predict_trace =
        make_trace(strf("payload=%d pps=60000 packets=5000 flows=5000", payload));
    core::AnalyzeOptions options;
    options.map.pps = 60'000;
    (void)analyze_or_die(analyzer, c.fn, predict_trace, options);
  }
  const double warm_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  const auto cache_stats = core::analysis_cache().stats();
  std::printf("\nwarm re-analysis of all %zu NFs: %.2f ms  (cache hits %llu, misses %llu, "
              "ilp solves on warm pass: %llu)\n",
              cases.size(), warm_ms, static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(solves.value() - solves_before));
  return 0;
}
