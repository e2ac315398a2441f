// Sharded sweep driver — concurrent (seed, load-point, param-vector)
// evaluations over the simulator/predictor.
//
// A sweep is a grid of independent evaluation points. Each point gets
// its own deterministic RNG stream (parallel::shard_seed of the base
// seed and the point index, so shards stay statistically independent)
// and its own metrics sinks (a common::Histogram plus an Accumulator,
// both mergeable), and the points run concurrently on the shared
// parallel::pool(). Results come back in point-index order, so a sweep's
// output is identical at every jobs level — the pool only changes wall
// time. bench/ binaries and the predictor sensitivity sweep below are
// the main consumers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/clara.hpp"

namespace clara::core {

/// One evaluation point of a sweep grid.
struct SweepPoint {
  std::size_t index = 0;        // position in the grid == shard id
  std::uint64_t seed = 0;       // per-shard RNG stream
  double load_pps = 0.0;        // offered load (0 when the sweep has none)
  std::vector<double> params;   // free-form parameter vector
};

/// Per-shard outcome. The evaluator fills value/stats/histogram; the
/// driver pre-sizes the histogram with the layout from SweepOptions so
/// shards merge cleanly.
struct SweepResult {
  SweepPoint point;
  double value = 0.0;        // headline scalar, evaluator-defined
  Accumulator stats;         // per-shard samples (exact moments)
  Histogram histogram{0.0, 0.0, 0};
  bool ok = true;
  std::string error;
  /// Evaluations this shard took (2 when the driver retried it).
  std::uint32_t attempts = 1;
};

/// Per-sweep failure accounting for the retry-once-then-record policy:
/// a shard whose eval reports ok == false is re-evaluated once after a
/// short backoff; a second failure is recorded here instead of aborting
/// the sweep. Mergeable across sweeps like Histograms.
struct SweepFailureSummary {
  std::uint64_t shards = 0;     // points driven
  std::uint64_t retried = 0;    // shards that needed a retry
  std::uint64_t recovered = 0;  // retries that then succeeded
  std::uint64_t failed = 0;     // shards still failing after the retry
  /// "shard N: message" lines in point-index order, capped at kMaxErrors.
  static constexpr std::size_t kMaxErrors = 16;
  std::vector<std::string> errors;

  void merge(const SweepFailureSummary& other);
  [[nodiscard]] bool any_failures() const { return failed > 0; }
  /// One-line human-readable summary for reports/CLI.
  [[nodiscard]] std::string describe() const;
};

struct SweepOptions {
  /// Concurrency (0 = global parallel::jobs(), 1 = serial).
  std::size_t jobs = 0;
  /// Layout for each shard's histogram.
  double hist_lo = 0.0;
  double hist_hi = 1'000'000.0;
  std::size_t hist_buckets = 64;
};

using SweepEval = std::function<void(const SweepPoint&, SweepResult&)>;

/// Cross product of load points and parameter vectors (either may be
/// empty — an empty axis contributes a single neutral element), with
/// per-point seeds derived from base_seed.
std::vector<SweepPoint> make_grid(const std::vector<double>& loads_pps,
                                  const std::vector<std::vector<double>>& params,
                                  std::uint64_t base_seed);

/// Runs eval over every point concurrently. The eval must only touch its
/// own SweepResult (plus caller-provided per-index slots); the driver
/// guarantees results[i].point == points[i] and index order in the
/// returned vector regardless of scheduling. A shard that reports
/// ok == false is retried once with a fresh SweepResult after a short
/// backoff; shards that fail twice stay in the output with ok == false
/// and are tallied into `failures` (merged in, when non-null) — the
/// sweep itself never aborts.
std::vector<SweepResult> run_sweep(const std::vector<SweepPoint>& points, const SweepEval& eval,
                                   const SweepOptions& options = {},
                                   SweepFailureSummary* failures = nullptr);

/// Merged view of all shard histograms (Histogram::merge). Shards that
/// failed (ok == false) are skipped.
Histogram merge_histograms(const std::vector<SweepResult>& results, const SweepOptions& options);

/// Predictor sensitivity sweep: re-predicts an analyzed NF at each
/// offered load, on the base workload's profile with the point's rate
/// and an independent seed stream; each point's summary comes from the
/// analysis cache's summary stage (Analyzer::summarize). The mapping is
/// NOT recomputed — the sweep answers "how does the predicted
/// latency/throughput of *this* mapping move with load", the what-if
/// question Clara exists for (paper §3.5), priced against Analysis::graph
/// (so `analysis` comes from Analyzer::analyze or repair). `base` is the
/// workload the analysis was made against.
struct LoadSweepPoint {
  double pps = 0.0;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;
  Prediction prediction;
};

std::vector<LoadSweepPoint> predict_load_sweep(const Analyzer& analyzer, const Analysis& analysis,
                                               const WorkloadSummary& base,
                                               const std::vector<double>& loads_pps,
                                               const AnalyzeOptions& options = {},
                                               std::size_t jobs = 0,
                                               SweepFailureSummary* failures = nullptr);

}  // namespace clara::core
