// Library microbenchmarks — throughput of the tool itself. The analyzer
// has to be fast enough that "predict before you port" is interactively
// usable, and the perf trajectory has to be visible across PRs: with
// --json=<path> the harness writes BENCH_perf.json (schema documented in
// docs/performance.md), including serial-vs-parallel wall time for the
// branch-and-bound and sweep substrates so speedups are tracked, not
// assumed.
//
//   perf_micro [--json=BENCH_perf.json] [--jobs=N]
//
// Self-timed (steady_clock, warmup + repetition) rather than a benchmark
// framework: no external dependency, and the JSON stays under our
// control.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cir/interp.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/cache.hpp"
#include "core/clara.hpp"
#include "core/predict.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "ilp/instances.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"
#include "lnic/profiles.hpp"
#include "nf/nf_cir.hpp"
#include "nf/nf_ported.hpp"
#include "nicsim/sim.hpp"
#include "passes/api_subst.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "workload/tracegen.hpp"

namespace {

using namespace clara;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- micro harness -----------------------------------------------------------

struct MicroResult {
  std::string name;
  double ns_per_iter = 0.0;
  std::size_t iterations = 0;
  /// Real rate: items/s when the case declares items_per_iter, otherwise
  /// iterations/s (1e9 / ns_per_iter). Never 0 (docs/performance.md).
  double items_per_sec = 0.0;
};

/// Runs body() repeatedly: a short warmup, then enough iterations to
/// cover ~80ms of wall time (at least 5).
template <class F>
MicroResult run_micro(const std::string& name, F&& body, std::size_t items_per_iter = 0) {
  for (int i = 0; i < 2; ++i) body();
  const auto probe0 = Clock::now();
  body();
  const double probe_ms = std::max(1e-6, ms_since(probe0));
  const auto iters = std::max<std::size_t>(5, static_cast<std::size_t>(80.0 / probe_ms));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) body();
  const double total_ms = ms_since(t0);
  MicroResult r;
  r.name = name;
  r.iterations = iters;
  r.ns_per_iter = total_ms * 1e6 / static_cast<double>(iters);
  r.items_per_sec = items_per_iter > 0
                        ? static_cast<double>(items_per_iter * iters) / (total_ms / 1e3)
                        : 1e9 / std::max(1e-9, r.ns_per_iter);
  std::printf("  %-28s %12.0f ns/iter  (%zu iters)\n", name.c_str(), r.ns_per_iter, iters);
  return r;
}

workload::WorkloadProfile small_profile() {
  return workload::parse_profile("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000").value();
}

workload::Trace small_trace() { return workload::generate_trace(small_profile()); }

std::vector<MicroResult> run_micros() {
  std::vector<MicroResult> out;
  std::printf("microbenchmarks:\n");

  {
    auto profile = workload::parse_profile("flows=10000 packets=10000").value();
    out.push_back(run_micro("trace_generation", [&] {
      profile.seed++;
      volatile auto n = workload::generate_trace(profile).size();
      (void)n;
    }, 10'000));
  }
  {
    // What a cold request pays for its workload: perfbench's cold spec
    // generated and summarized, a fresh seed each time, as a summary-cache
    // miss does.
    auto profile = workload::parse_profile("tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000").value();
    const auto nic = lnic::netronome_agilio_cx();
    const core::PredictOptions predict;
    out.push_back(run_micro("workload_summary", [&] {
      profile.seed++;
      volatile auto n = core::summarize(workload::generate_trace(profile), nic, predict.payload_buckets).classes.size();
      (void)n;
    }, 2'000));
  }
  {
    // A representative mapping-LP shape: 30 binaries, 10 rows.
    ilp::Model model;
    std::vector<int> vars;
    for (int i = 0; i < 30; ++i) vars.push_back(model.add_binary("b"));
    for (int r = 0; r < 10; ++r) {
      ilp::LinExpr row;
      for (int i = 0; i < 30; ++i) row.add(vars[i], ((i * 7 + r) % 5) - 2.0);
      model.add_constraint(std::move(row), ilp::Sense::kLe, 3.0);
    }
    ilp::LinExpr objective;
    for (int i = 0; i < 30; ++i) objective.add(vars[i], (i % 7) - 3.0);
    model.set_objective(std::move(objective));
    out.push_back(run_micro("simplex_solve", [&] {
      volatile auto s = ilp::solve_lp(model).status;
      (void)s;
    }));
  }
  {
    // Cost of one simplex pivot. The assignment LP runs a long
    // deterministic pivot trajectory (phase 1 with many artificials,
    // then phase 2), so ns/solve divided by the pivot count is exact
    // and setup cost amortizes away — this is the number the simplex
    // engine is directly accountable for, gated tighter than the 10%
    // default (docs/performance.md).
    const auto model = ilp::make_assignment(16);
    const auto pivots = std::max<std::size_t>(1, ilp::solve_lp(model).pivots);
    auto r = run_micro("solver_pivot_ns", [&] {
      volatile auto s = ilp::solve_lp(model).status;
      (void)s;
    }, pivots);
    r.ns_per_iter /= static_cast<double>(pivots);
    std::printf("  %-28s %12.1f ns/pivot (%zu pivots/solve)\n", "", r.ns_per_iter, pivots);
    out.push_back(r);
  }
  {
    auto fn = nf::build_nat_nf();
    passes::substitute_framework_apis(fn);
    passes::CostHints hints;
    const auto graph = passes::DataflowGraph::build(fn, hints);
    const auto profile = lnic::netronome_agilio_cx();
    const mapping::Mapper mapper(profile);
    out.push_back(run_micro("milp_map_nat", [&] {
      volatile auto ok = mapper.map(graph, hints).ok();
      (void)ok;
    }));
  }
  {
    auto fn = nf::build_nat_nf();
    passes::substitute_framework_apis(fn);
    class Handler final : public cir::VCallHandler {
     public:
      std::uint64_t handle(cir::VCall v, std::span<const std::uint64_t>) override {
        return v == cir::VCall::kTableLookup ? 1 : 0;
      }
    } handler;
    cir::Interpreter interp(fn, handler);
    out.push_back(run_micro("interpret_nat", [&] {
      volatile bool ok = interp.run().ok();
      (void)ok;
    }));
  }
  {
    const core::Analyzer analyzer(lnic::netronome_agilio_cx());
    const auto nat = nf::build_nat_nf();
    const auto trace = small_trace();
    // Cache off: this micro tracks the *cold* pipeline cost; the warm
    // path is measured separately by the cached_sweep scenario.
    core::AnalyzeOptions options;
    options.use_cache = false;
    out.push_back(run_micro("analyze_nat_end_to_end", [&] {
      volatile auto ok = analyzer.analyze(nat, trace, options).ok();
      (void)ok;
    }));
  }
  {
    // Prediction alone over a mixed-payload summary (32 packet classes),
    // so the per-class costing is gated on its own: the mapping comes
    // from one analysis up front, as a warm request would find it.
    const core::Analyzer analyzer(lnic::netronome_agilio_cx());
    const auto profile =
        workload::parse_profile("tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000").value();
    const auto summary = analyzer.summarize(profile);
    const auto analysis = analyzer.analyze(nf::build_nat_nf(), *summary).value();
    const auto graph = passes::DataflowGraph::build(analysis.lowered, summary->hints);
    std::printf("  (predict_nat_mixed: %zu classes)\n", summary->classes.size());
    out.push_back(run_micro("predict_nat_mixed", [&] {
      volatile bool ok =
          core::predict(analysis.lowered, graph, analysis.mapping, analyzer.mapper(), *summary).ok();
      (void)ok;
    }, summary->classes.size()));
  }
  {
    // The wire codec's share of a warm clarad request: each request of
    // the `clara bench serve` mix and its warm response, both serialized
    // and parsed back.
    serve::Service service(serve::ServiceOptions{0});
    const auto mix = serve::build_mix();
    for (const auto& request : mix) (void)service.handle(request);
    std::vector<core::Response> responses;
    for (const auto& request : mix) responses.push_back(service.handle(request));
    auto r = run_micro("wire_codec", [&] {
      for (std::size_t k = 0; k < mix.size(); ++k) {
        volatile bool ok = core::Request::from_json(mix[k].to_json()).ok() &&
                           core::Response::from_json(responses[k].to_json()).ok();
        (void)ok;
      }
    }, mix.size());
    r.ns_per_iter /= static_cast<double>(mix.size());
    std::printf("  %-28s %12.1f ns/request (%zu requests/iter)\n", "", r.ns_per_iter, mix.size());
    out.push_back(r);
    // The mix's warm validate as clarad serves it: handled and written as
    // its response line, with the analysis from the cache, so what is
    // left is the replay on the simulator.
    const auto validate = std::find_if(mix.begin(), mix.end(), [](const core::Request& request) {
      return request.kind == core::RequestKind::kValidate;
    });
    out.push_back(run_micro("validate_warm", [&] {
      volatile auto n = service.handle(*validate).to_line().size();
      (void)n;
    }));
  }
  {
    // A cold clarad request as perfbench's loadgen_cold sends it: each
    // request of the serve mix on 64:1500-byte payloads under a trace seed
    // no request used before, so every one generates its trace, misses
    // the graph and mapping caches and solves its ILP. Handled and written
    // as its response line at jobs=1; the row is the median over rounds of
    // the mix of a round's time per request.
    const std::size_t saved_jobs = parallel::jobs();
    parallel::set_jobs(1);
    serve::Service service(serve::ServiceOptions{0});
    auto mix = serve::build_mix();
    std::uint64_t seed = 1'000'000;
    const auto round_ns_per_request = [&] {
      for (auto& request : mix) {
        request.workload = "tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000 seed=" + std::to_string(seed++);
      }
      const auto t0 = Clock::now();
      for (const auto& request : mix) {
        volatile auto n = service.handle(request).to_line().size();
        (void)n;
      }
      return ms_since(t0) * 1e6 / static_cast<double>(mix.size());
    };
    for (int i = 0; i < 3; ++i) (void)round_ns_per_request();
    constexpr std::size_t kRounds = 101;
    std::vector<double> rounds(kRounds);
    for (auto& ns : rounds) ns = round_ns_per_request();
    std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
    MicroResult r;
    r.name = "serve_cold_request";
    r.ns_per_iter = rounds[kRounds / 2];
    r.iterations = kRounds * mix.size();
    r.items_per_sec = 1e9 / r.ns_per_iter;
    std::printf("  %-28s %12.0f ns/request (median of %zu rounds of %zu requests)\n", r.name.c_str(),
                r.ns_per_iter, kRounds, mix.size());
    out.push_back(r);
    parallel::set_jobs(saved_jobs);
  }
  {
    nicsim::NicSim sim;
    auto& table = sim.create_table("flow_table", 131072, 64, nicsim::MemLevel::kEmem);
    nf::NatProgram program(table, true);
    const auto trace = small_trace();
    std::size_t i = 0;
    out.push_back(run_micro("simulate_nat_packet", [&] {
      volatile auto c = sim.measure_one(program, trace.packets[i++ % trace.size()]);
      (void)c;
    }, 1));
    // The always-on overhead check: identical body, recorder enabled vs
    // disabled, in alternating blocks with min-of-blocks per arm so the
    // comparison survives scheduler noise. The built-in instrumentation
    // records nothing per packet (events come from the pool, solver
    // waves, cache, and faults), so this is what production pays here.
    {
      const auto block = [&](bool enabled, std::size_t iters) {
        obs::recorder().set_enabled(enabled);
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < iters; ++k) {
          volatile auto c = sim.measure_one(program, trace.packets[i++ % trace.size()]);
          (void)c;
        }
        obs::recorder().set_enabled(true);
        return ms_since(t0) * 1e6 / static_cast<double>(iters);
      };
      constexpr std::size_t kBlock = 20'000;
      (void)block(true, kBlock);  // warmup
      (void)block(false, kBlock);
      double on_ns = 1e300;
      double off_ns = 1e300;
      for (int rep = 0; rep < 7; ++rep) {
        on_ns = std::min(on_ns, block(true, kBlock));
        off_ns = std::min(off_ns, block(false, kBlock));
      }
      std::printf("  recorder overhead on simulate_nat_packet: %+.2f%% (enabled vs disabled)\n",
                  off_ns > 0 ? 100.0 * (on_ns - off_ns) / off_ns : 0.0);
    }
    // Worst case: one synthetic event per packet — bounds what adding a
    // per-packet record() would cost, NOT what the recorder costs today.
    out.push_back(run_micro("simulate_nat_packet_recorded", [&] {
      obs::record(obs::FlightEventKind::kMark, i);
      volatile auto c = sim.measure_one(program, trace.packets[i++ % trace.size()]);
      (void)c;
    }, 1));
  }
  {
    // Steady-state cost of the datapath per delivered packet:
    // NicSim::run over a whole trace, so DMA/queue/thread-binding and
    // the statistics fold are all in the loop (measure_one above times
    // the program-only path). The name predates the one per-packet loop
    // and is kept so the baseline row still gates.
    nicsim::NicSim sim;
    auto& table = sim.create_table("flow_table", 131072, 64, nicsim::MemLevel::kEmem);
    nf::NatProgram program(table, true);
    const auto trace = small_trace();
    auto r = run_micro("simulate_batch_ns_per_pkt", [&] {
      volatile auto p = sim.run(program, trace).packets;
      (void)p;
    }, trace.size());
    r.ns_per_iter /= static_cast<double>(trace.size());
    std::printf("  %-28s %12.1f ns/packet (%zu packets/run)\n", "", r.ns_per_iter, trace.size());
    out.push_back(r);
  }
  {
    // Raw cost of one record() call into the calling thread's ring.
    std::uint64_t n = 0;
    out.push_back(run_micro("recorder_record", [&] {
      obs::record(obs::FlightEventKind::kMark, n++);
    }, 1));
  }
  {
    nicsim::SetAssocCache cache(3_MiB, 64, 8);
    std::uint64_t addr = 0;
    out.push_back(run_micro("emem_cache_access", [&] {
      volatile bool hit = cache.access(addr);
      (void)hit;
      addr += 4096;
    }, 1));
  }
  {
    Rng rng(1);
    const ZipfSampler zipf(100000, 1.1);
    out.push_back(run_micro("zipf_sample", [&] {
      volatile auto s = zipf.sample(rng);
      (void)s;
    }, 1));
  }
  return out;
}

// --- serial vs parallel comparisons ------------------------------------------

struct ParallelResult {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  std::size_t jobs = 0;
  std::uint64_t pivots = 0;          // B&B case
  std::uint64_t nodes = 0;           // B&B case
  /// Work rate in the scenario's own unit: B&B nodes/s for the solver,
  /// replayed packets/s for the sweep. The JSON emits whichever pair is
  /// meaningful (nodes_per_sec_* or packets_per_sec_*), never a zero
  /// placeholder.
  double nodes_per_sec_serial = 0.0;      // B&B case
  double nodes_per_sec_parallel = 0.0;    // B&B case
  double packets_per_sec_serial = 0.0;    // sweep case
  double packets_per_sec_parallel = 0.0;  // sweep case
  bool identical_results = false;
  /// jobs > hardware_concurrency: the speedup is not a fair measure of
  /// the substrate (threads time-slice), so regression gating skips it.
  bool oversubscribed = false;
};

ParallelResult bench_branch_and_bound(std::size_t jobs) {
  ParallelResult r;
  r.name = "milp_branch_and_bound";
  r.jobs = jobs;
  // Market-split (Cornuéjols–Dawande): hard enough to keep many waves
  // busy. Shared with `clara bench milp_branch_and_bound` so the CLI and
  // this harness time the same model (ilp/instances.hpp).
  const auto model = ilp::make_market_split(20, 3);
  ilp::SolveOptions options;
  options.max_nodes = 10'000;

  options.jobs = 1;
  auto t0 = Clock::now();
  const auto serial = ilp::solve_milp(model, options);
  r.serial_ms = ms_since(t0);

  options.jobs = jobs;
  t0 = Clock::now();
  const auto parallel = ilp::solve_milp(model, options);
  r.parallel_ms = ms_since(t0);

  r.speedup = r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0.0;
  r.pivots = serial.pivots;
  r.nodes = serial.nodes_explored;
  r.nodes_per_sec_serial = r.serial_ms > 0 ? static_cast<double>(r.nodes) / (r.serial_ms / 1e3) : 0.0;
  r.nodes_per_sec_parallel =
      r.parallel_ms > 0 ? static_cast<double>(r.nodes) / (r.parallel_ms / 1e3) : 0.0;
  r.identical_results = serial.status == parallel.status &&
                        serial.objective == parallel.objective && serial.values == parallel.values &&
                        serial.nodes_explored == parallel.nodes_explored &&
                        serial.pivots == parallel.pivots;
  return r;
}

ParallelResult bench_sweep(std::size_t jobs) {
  ParallelResult r;
  r.name = "sweep_replay";
  r.jobs = jobs;
  constexpr std::size_t kPoints = 8;
  constexpr std::uint64_t kPackets = 4'000;

  const auto eval = [](const core::SweepPoint& point, core::SweepResult& result) {
    auto profile =
        workload::parse_profile("tcp=0.8 flows=2000 payload=300 packets=4000").value();
    profile.pps = point.load_pps;
    profile.seed = point.seed;
    const auto trace = workload::generate_trace(profile);
    nicsim::NicSim sim;
    auto& table = sim.create_table("flow_table", 131072, 64, nicsim::MemLevel::kEmem);
    nf::NatProgram program(table, true);
    const auto stats = sim.run(program, trace);
    result.value = stats.mean_latency();
    result.stats.add(stats.mean_latency());
  };

  std::vector<double> loads;
  for (std::size_t i = 0; i < kPoints; ++i) {
    loads.push_back(20'000.0 + 20'000.0 * static_cast<double>(i));
  }
  const auto grid = core::make_grid(loads, {}, 42);

  core::SweepOptions options;
  options.jobs = 1;
  auto t0 = Clock::now();
  const auto serial = core::run_sweep(grid, eval, options);
  r.serial_ms = ms_since(t0);

  options.jobs = jobs;
  t0 = Clock::now();
  const auto parallel = core::run_sweep(grid, eval, options);
  r.parallel_ms = ms_since(t0);

  r.speedup = r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0.0;
  const double total_packets = static_cast<double>(kPackets * kPoints);
  r.packets_per_sec_serial = total_packets / (r.serial_ms / 1e3);
  r.packets_per_sec_parallel = total_packets / (r.parallel_ms / 1e3);
  r.identical_results = serial.size() == parallel.size();
  for (std::size_t i = 0; i < serial.size() && r.identical_results; ++i) {
    r.identical_results = serial[i].value == parallel[i].value;
  }
  return r;
}

// --- cached analysis sweep ---------------------------------------------------

struct CacheBenchResult {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  /// cold_ms / warm_ms — the headline number tracked across PRs.
  double cache_warm_speedup = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t warm_ilp_solves = 0;  // must be 0: a warm pass skips the ILP
  bool identical_results = false;
};

/// Analyzes a batch of NFs twice against the same workload spec, which
/// each analysis resolves through Analyzer::summarize(profile) the way a
/// clarad request does: once against a cleared cache (cold: trace
/// generation, summary, lowering, graph, ILP, prediction) and once warm
/// (every stage hits; prediction runs). The warm pass must be
/// bit-identical and run zero ILP solves; the speedup is what
/// interactive re-analysis (sweeps, co-residence studies, CI reruns)
/// actually feels.
CacheBenchResult bench_cached_sweep() {
  CacheBenchResult r;
  const core::Analyzer analyzer(lnic::netronome_agilio_cx());
  std::vector<cir::Function> nfs;
  nfs.push_back(nf::build_nat_nf());
  nfs.push_back(nf::build_hh_nf());
  nfs.push_back(nf::build_vnf_chain());
  const auto profile = small_profile();

  const auto run_pass = [&] {
    std::vector<double> latencies;
    for (const auto& fn : nfs) {
      auto analysis = analyzer.analyze(fn, *analyzer.summarize(profile));
      latencies.push_back(analysis.ok() ? analysis.value().prediction.mean_latency_cycles : -1.0);
    }
    return latencies;
  };

  core::analysis_cache().clear();
  auto t0 = Clock::now();
  const auto cold = run_pass();
  r.cold_ms = ms_since(t0);

  auto& solves = obs::metrics().counter("ilp/solves");
  const std::uint64_t solves_before = solves.value();
  t0 = Clock::now();
  const auto warm = run_pass();
  r.warm_ms = ms_since(t0);

  r.warm_ilp_solves = solves.value() - solves_before;
  r.cache_warm_speedup = r.warm_ms > 0 ? r.cold_ms / r.warm_ms : 0.0;
  r.identical_results = cold == warm;
  const auto stats = core::analysis_cache().stats();
  r.hits = stats.hits;
  r.misses = stats.misses;
  return r;
}

// --- incremental mapping repair ----------------------------------------------

struct RepairBenchResult {
  double cold_remap_ms = 0.0;
  double repair_ms = 0.0;
  /// cold_remap_ms / repair_ms — the headline number tracked across PRs.
  double repair_remap_speedup = 0.0;
  std::size_t displaced_nodes = 0;
  bool repaired_flagged = false;
  bool feasible = false;
};

/// Solves nat healthy, fails the checksum accelerator, then compares a
/// cold re-solve of the faulted model against Mapper::repair, which pins
/// the surviving assignments and re-solves only the displaced nodes.
RepairBenchResult bench_repair() {
  RepairBenchResult r;
  auto fn = nf::build_nat_nf();
  passes::substitute_framework_apis(fn);
  passes::CostHints hints;
  const auto graph = passes::DataflowGraph::build(fn, hints);

  const auto healthy_profile = lnic::netronome_agilio_cx();
  const mapping::Mapper healthy(healthy_profile);
  auto previous = healthy.map(graph, hints);
  if (!previous) return r;

  auto faulted_profile = lnic::netronome_agilio_cx();
  if (!faulted_profile.graph.mark_offline("csum")) return r;
  const mapping::Mapper faulted(faulted_profile);

  constexpr int kIters = 20;
  for (int i = 0; i < 2; ++i) {  // warmup both paths
    (void)faulted.map(graph, hints);
    (void)faulted.repair(graph, hints, previous.value());
  }
  auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    volatile bool ok = faulted.map(graph, hints).ok();
    (void)ok;
  }
  r.cold_remap_ms = ms_since(t0) / kIters;

  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    volatile bool ok = faulted.repair(graph, hints, previous.value()).ok();
    (void)ok;
  }
  r.repair_ms = ms_since(t0) / kIters;
  r.repair_remap_speedup = r.repair_ms > 0 ? r.cold_remap_ms / r.repair_ms : 0.0;

  auto repaired = faulted.repair(graph, hints, previous.value());
  r.feasible = repaired.ok();
  if (repaired.ok()) {
    r.repaired_flagged = repaired.value().repaired;
    r.displaced_nodes = repaired.value().repair_displaced;
  }
  return r;
}

// --- analysis-as-a-service daemon --------------------------------------------

/// Spawns an in-process clarad on a temporary socket and hammers it with
/// the serve loadgen's deterministic request mix (analyze / sweep /
/// repair / validate across 16 connections). The client-observed
/// latency percentiles land in BENCH_perf.json as serve_p50_us /
/// serve_p99_us / serve_p999_us, and the warm hit rate proves a
/// long-lived daemon answers repeated analyses from the shared cache.
serve::LoadGenReport bench_serve() {
  serve::LoadGenOptions options;
  options.requests = 1200;
  options.connections = 16;
  auto report = serve::run_loadgen(options);
  if (!report) {
    std::fprintf(stderr, "serve loadgen failed: %s\n", report.error().message.c_str());
    return {};
  }
  return std::move(report).value();
}

// --- output ------------------------------------------------------------------

void write_json(const std::string& path, std::size_t jobs, const std::vector<MicroResult>& micros,
                const std::vector<ParallelResult>& par, const CacheBenchResult& cache,
                const RepairBenchResult& repair, const serve::LoadGenReport& serve_report) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"clara-bench-perf/1\",\n");
  std::fprintf(f, "  \"jobs\": %zu,\n", jobs);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const auto& m = micros[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_iter\": %.1f, \"iterations\": %zu, "
                 "\"items_per_sec\": %.1f}%s\n",
                 m.name.c_str(), m.ns_per_iter, m.iterations, m.items_per_sec,
                 i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parallel\": [\n");
  for (std::size_t i = 0; i < par.size(); ++i) {
    const auto& p = par[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"jobs\": %zu, \"serial_ms\": %.2f, \"parallel_ms\": %.2f, "
                 "\"speedup\": %.3f, \"pivots\": %llu, \"nodes\": %llu, ",
                 p.name.c_str(), p.jobs, p.serial_ms, p.parallel_ms, p.speedup,
                 static_cast<unsigned long long>(p.pivots), static_cast<unsigned long long>(p.nodes));
    // Work rate in the scenario's own unit: B&B nodes/s for the solver,
    // packets/s for the sweep — never a meaningless zero placeholder.
    if (p.nodes > 0) {
      std::fprintf(f, "\"nodes_per_sec_serial\": %.1f, \"nodes_per_sec_parallel\": %.1f, ",
                   p.nodes_per_sec_serial, p.nodes_per_sec_parallel);
    } else {
      std::fprintf(f, "\"packets_per_sec_serial\": %.1f, \"packets_per_sec_parallel\": %.1f, ",
                   p.packets_per_sec_serial, p.packets_per_sec_parallel);
    }
    std::fprintf(f, "\"identical_results\": %s, \"oversubscribed\": %s}%s\n",
                 p.identical_results ? "true" : "false", p.oversubscribed ? "true" : "false",
                 i + 1 < par.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cache\": {\"name\": \"cached_sweep\", \"cold_ms\": %.2f, \"warm_ms\": %.2f, "
               "\"cache_warm_speedup\": %.3f, \"hits\": %llu, \"misses\": %llu, "
               "\"warm_ilp_solves\": %llu, \"identical_results\": %s},\n",
               cache.cold_ms, cache.warm_ms, cache.cache_warm_speedup,
               static_cast<unsigned long long>(cache.hits),
               static_cast<unsigned long long>(cache.misses),
               static_cast<unsigned long long>(cache.warm_ilp_solves),
               cache.identical_results ? "true" : "false");
  std::fprintf(f,
               "  \"repair\": {\"name\": \"repair_remap\", \"cold_remap_ms\": %.3f, "
               "\"repair_ms\": %.3f, \"repair_remap_speedup\": %.3f, \"displaced_nodes\": %zu, "
               "\"repaired_flagged\": %s, \"feasible\": %s},\n",
               repair.cold_remap_ms, repair.repair_ms, repair.repair_remap_speedup,
               repair.displaced_nodes, repair.repaired_flagged ? "true" : "false",
               repair.feasible ? "true" : "false");
  std::fprintf(f,
               "  \"serve\": {\"name\": \"serve_loadgen\", \"requests\": %zu, \"ok\": %zu, "
               "\"failed\": %zu, \"dropped_connections\": %zu, \"serve_retries\": %llu, "
               "\"serve_dropped\": %zu, \"serve_p50_us\": %.1f, "
               "\"serve_p99_us\": %.1f, \"serve_p999_us\": %.1f, \"serve_cold_hit_rate\": %.4f, "
               "\"serve_warm_hit_rate\": %.4f, \"warm_ilp_solves\": %llu}\n",
               serve_report.requests, serve_report.ok, serve_report.failed,
               serve_report.dropped_connections,
               static_cast<unsigned long long>(serve_report.retries),
               serve_report.dropped_requests, serve_report.p50_us, serve_report.p99_us,
               serve_report.p999_us, serve_report.cold_hit_rate, serve_report.warm_hit_rate,
               static_cast<unsigned long long>(serve_report.warm_ilp_solves));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t jobs = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg.rfind("--jobs=", 0) == 0) jobs = std::strtoul(arg.c_str() + 7, nullptr, 10);
    else {
      std::fprintf(stderr, "usage: perf_micro [--json=<path>] [--jobs=N]\n");
      return 1;
    }
  }
  if (jobs < 1) jobs = 1;
  // Size the shared pool for the parallel comparisons; serial runs pin
  // options.jobs = 1 and stay inline regardless.
  parallel::set_jobs(jobs);

  const auto micros = run_micros();

  std::printf("\nserial vs %zu-thread (hardware threads: %u):\n", jobs,
              std::thread::hardware_concurrency());
  std::vector<ParallelResult> par;
  par.push_back(bench_branch_and_bound(jobs));
  par.push_back(bench_sweep(jobs));
  const bool oversubscribed = jobs > std::max(1u, std::thread::hardware_concurrency());
  for (auto& p : par) {
    p.oversubscribed = oversubscribed;
    std::printf("  %-24s serial %8.2f ms  parallel %8.2f ms  speedup %.2fx  identical=%s%s\n",
                p.name.c_str(), p.serial_ms, p.parallel_ms, p.speedup,
                p.identical_results ? "yes" : "NO",
                p.oversubscribed ? "  (oversubscribed)" : "");
  }

  const auto cache = bench_cached_sweep();
  std::printf("\ncached analysis sweep (cold vs warm, 3 NFs):\n");
  std::printf("  cold %8.2f ms  warm %8.2f ms  cache_warm_speedup %.2fx  warm_ilp_solves=%llu  identical=%s\n",
              cache.cold_ms, cache.warm_ms, cache.cache_warm_speedup,
              static_cast<unsigned long long>(cache.warm_ilp_solves),
              cache.identical_results ? "yes" : "NO");

  const auto repair = bench_repair();
  std::printf("\nincremental mapping repair (nat, checksum accelerator failed):\n");
  std::printf("  cold remap %8.3f ms  repair %8.3f ms  repair_remap_speedup %.2fx  displaced=%zu  flagged=%s\n",
              repair.cold_remap_ms, repair.repair_ms, repair.repair_remap_speedup,
              repair.displaced_nodes, repair.repaired_flagged ? "yes" : "NO");

  const auto serve_report = bench_serve();
  std::printf("\nanalysis daemon under load (in-process clarad, mixed requests):\n  %s",
              serve_report.render().c_str());

  if (!json_path.empty()) write_json(json_path, jobs, micros, par, cache, repair, serve_report);

  bool ok = true;
  for (const auto& p : par) ok = ok && p.identical_results;
  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel results differ from serial\n");
    return 1;
  }
  if (!cache.identical_results || cache.warm_ilp_solves != 0) {
    std::fprintf(stderr, "FAIL: warm cache pass diverged from cold pass\n");
    return 1;
  }
  if (!repair.feasible || !repair.repaired_flagged) {
    std::fprintf(stderr, "FAIL: incremental repair did not produce a flagged feasible mapping\n");
    return 1;
  }
  if (serve_report.dropped_connections > 0 || serve_report.ok == 0) {
    std::fprintf(stderr, "FAIL: serve loadgen dropped %zu connection(s) (%zu ok responses)\n",
                 serve_report.dropped_connections, serve_report.ok);
    return 1;
  }
  if (serve_report.dropped_requests > 0) {
    std::fprintf(stderr, "FAIL: serve loadgen silently dropped %zu request(s)\n",
                 serve_report.dropped_requests);
    return 1;
  }
  return 0;
}
