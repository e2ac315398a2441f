// Accuracy ledger — tracked predicted-vs-simulated error attribution.
//
// Clara's product *is* a prediction, so prediction accuracy is tracked
// the same way BENCH_perf.json tracks speed: the ledger runs the
// NF×variant×workload validation matrix through the sharded sweep
// driver (bit-identical at any jobs level), computes each scenario's
// relative error between Analysis.prediction and nicsim ground truth,
// and attributes that error per breakdown component — the output says
// not just "NAT is 7% off" but "5 of those 7 points come from the EMEM
// queue model". The report serializes to the tracked
// BENCH_accuracy.json (schema clara-bench-accuracy/1, refreshed by the
// clara_bench_accuracy target) and is gated by `clara bench diff`
// with per-metric tolerance bands (obs/benchdiff, docs/performance.md).
//
// Attribution leans on the shared breakdown invariant (obs/breakdown):
// both the simulator's measured charges and the predictor's analytic
// decomposition sum to their respective mean latencies, so the
// per-component gap |pred_c - sim_c| / sim_total is a well-defined
// share of the scenario's error budget.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/clara.hpp"
#include "obs/breakdown.hpp"

namespace clara::obs {

/// One cell of the validation matrix: a corpus NF, the knob setting
/// being swept ("rules=5000", "payload=800"), and its workload spec.
struct ValidationScenario {
  std::string nf;        // corpus name of a ported NF ("lpm", "nat", ...)
  std::string variant;   // human label for the swept knob
  std::string workload;  // workload spec; the ledger overrides the seed
  /// LPM-only knobs (the Figure 3(a) sweep variable); the defaults are
  /// the corpus "lpm" entry's.
  std::uint64_t lpm_rules = 10'000;
  bool lpm_flow_cache = true;

  [[nodiscard]] std::string name() const { return nf + "/" + variant; }
};

/// Predicted-vs-simulated charge for one breakdown component.
struct ComponentError {
  double predicted_cycles = 0.0;
  double simulated_cycles = 0.0;
  /// |predicted - simulated| / simulated mean latency: this component's
  /// contribution to the scenario's relative-error budget. The shares
  /// upper-bound the headline rel_err (gaps of opposite sign cancel in
  /// the total but not in the attribution).
  double error_share = 0.0;
};

/// One scenario's outcome: headline error plus its attribution.
struct ScenarioResult {
  ValidationScenario scenario;
  std::uint64_t seed = 0;  // effective workload seed (sweep shard stream)
  bool ok = false;
  std::string error;
  double predicted_cycles = 0.0;
  double simulated_cycles = 0.0;
  /// |predicted - simulated| / simulated.
  double rel_err = 0.0;
  BreakdownMeans predicted;  // sums to predicted_cycles
  BreakdownMeans simulated;  // sums to simulated_cycles
  std::array<ComponentError, kComponentCount> components{};
};

/// Per-NF aggregate over its scenarios: the tracked error bands.
struct NfAccuracy {
  std::string nf;
  std::size_t scenarios = 0;
  double mean_rel_err = 0.0;
  double p95_rel_err = 0.0;
  double max_rel_err = 0.0;
  /// Mean per-component charges and error shares across the scenarios.
  BreakdownMeans predicted;
  BreakdownMeans simulated;
  std::array<double, kComponentCount> error_share{};
  /// Component with the largest mean error share ("where the model is
  /// wrong"), and that share.
  std::string worst_component;
  double worst_component_share = 0.0;
};

struct AccuracyOptions {
  /// Base seed; per-scenario seeds derive via the sweep driver's shard
  /// streams, so the ledger is reproducible from this one number.
  std::uint64_t seed = 42;
  /// Sweep concurrency (0 = global parallel::jobs(), 1 = serial). The
  /// report is bit-identical at every level.
  std::size_t jobs = 0;
  /// Caps every scenario's trace length (0 = as specified); tests use
  /// this to run the full matrix quickly.
  std::uint64_t max_packets = 0;
};

struct AccuracyReport {
  std::uint64_t seed = 0;
  std::vector<ScenarioResult> scenarios;  // matrix order
  std::vector<NfAccuracy> per_nf;         // first-appearance order
  /// Failed scenarios (ok == false) excluded from per_nf aggregates.
  std::size_t failures = 0;

  /// ASCII tables: per-NF error bands, then per-scenario detail.
  [[nodiscard]] std::string render() const;
  /// The BENCH_accuracy.json document (schema clara-bench-accuracy/1).
  /// Fixed-precision formatting, so identical results give identical
  /// bytes — the jobs=1/2/8 determinism contract is string equality.
  [[nodiscard]] std::string to_json() const;
  /// Publishes accuracy/* gauges (per-NF mean/p95/max rel err and the
  /// overall mean) through the process-wide metrics registry, visible in
  /// every exposition format including Prometheus.
  void publish_metrics() const;
};

/// Runs the validation matrix and aggregates the ledger.
class AccuracyLedger {
 public:
  explicit AccuracyLedger(AccuracyOptions options = {});

  /// The default NF×variant×workload matrix: the paper's §4 NFs swept
  /// over their figure variables (LPM table sizes, NAT/VNF payloads)
  /// plus every other NF with a faithful hand-port at a standard
  /// workload.
  [[nodiscard]] static std::vector<ValidationScenario> default_matrix();

  /// Runs every scenario through core::run_sweep on the given profile.
  /// Deterministic at any jobs level (results come back in matrix
  /// order; each scenario owns an independent seed stream).
  [[nodiscard]] AccuracyReport run(const std::vector<ValidationScenario>& matrix,
                                   const lnic::NicProfile& profile) const;
  /// default_matrix() on the Netronome profile.
  [[nodiscard]] AccuracyReport run() const;

  [[nodiscard]] const AccuracyOptions& options() const { return options_; }

 private:
  AccuracyOptions options_;
};

/// The unported CIR a scenario analyzes: the corpus build, with the LPM
/// knobs applied to "lpm".
Result<cir::Function, Error> scenario_function(const ValidationScenario& scenario);

/// Ground truth for one already-analyzed corpus NF: replays the trace
/// through the NF's hand port, its tables where the analysis mapped them,
/// and returns the scenario result with per-component attribution. kParse
/// when the analyzer's NIC is not netronome-agilio-cx (the one device
/// nicsim models), when nf::port refuses, or when the port runs LPM
/// lookups on the engine but the mapping kept the walk in software.
Result<ScenarioResult, Error> validate_prediction(const core::Analyzer& analyzer,
                                                  const ValidationScenario& scenario,
                                                  const core::Analysis& analysis,
                                                  const workload::Trace& trace);

/// Per-component error table for a single scenario (the CLI --validate
/// view): component | predicted | simulated | gap | share of error.
std::string render_validation(const ScenarioResult& result);

}  // namespace clara::obs
