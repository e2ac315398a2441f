#include "core/sweep.hpp"

#include <chrono>
#include <thread>

#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/predict.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/trace.hpp"
#include "passes/dataflow.hpp"

namespace clara::core {

std::vector<SweepPoint> make_grid(const std::vector<double>& loads_pps,
                                  const std::vector<std::vector<double>>& params,
                                  std::uint64_t base_seed) {
  const std::vector<double> loads = loads_pps.empty() ? std::vector<double>{0.0} : loads_pps;
  const std::vector<std::vector<double>> vecs =
      params.empty() ? std::vector<std::vector<double>>{{}} : params;
  std::vector<SweepPoint> grid;
  grid.reserve(loads.size() * vecs.size());
  for (const double pps : loads) {
    for (const auto& vec : vecs) {
      SweepPoint p;
      p.index = grid.size();
      p.seed = parallel::shard_seed(base_seed, p.index);
      p.load_pps = pps;
      p.params = vec;
      grid.push_back(std::move(p));
    }
  }
  return grid;
}

void SweepFailureSummary::merge(const SweepFailureSummary& other) {
  shards += other.shards;
  retried += other.retried;
  recovered += other.recovered;
  failed += other.failed;
  for (const auto& e : other.errors) {
    if (errors.size() >= kMaxErrors) break;
    errors.push_back(e);
  }
}

std::string SweepFailureSummary::describe() const {
  return strf("sweep shards: %llu total, %llu retried, %llu recovered, %llu failed",
              static_cast<unsigned long long>(shards), static_cast<unsigned long long>(retried),
              static_cast<unsigned long long>(recovered), static_cast<unsigned long long>(failed));
}

std::vector<SweepResult> run_sweep(const std::vector<SweepPoint>& points, const SweepEval& eval,
                                   const SweepOptions& options, SweepFailureSummary* failures) {
  CLARA_TRACE_SCOPE("core/sweep");
  const auto pool_before = parallel::pool().stats();
  std::vector<SweepResult> results(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    results[i].point = points[i];
    results[i].histogram = Histogram(options.hist_lo, options.hist_hi, options.hist_buckets);
  }
  // Shards are disjoint slots of `results`, so the body is race-free by
  // construction; each shard's RNG stream comes from its point.seed.
  // A failed shard is retried exactly once on a fresh result slot after
  // a brief backoff (transient faults — injected or real — may clear);
  // whether a shard retries depends only on its own eval outcome, never
  // on scheduling, so the output is identical at every jobs level.
  parallel::parallel_for_jobs(options.jobs, 0, points.size(), [&](std::size_t i) {
    eval(points[i], results[i]);
    if (results[i].ok) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    SweepResult retry;
    retry.point = points[i];
    retry.histogram = Histogram(options.hist_lo, options.hist_hi, options.hist_buckets);
    retry.attempts = 2;
    eval(points[i], retry);
    results[i] = std::move(retry);
  });
  obs::publish_pool_stats("sweep", pool_before, parallel::pool().stats());

  // Assemble the failure summary serially, in point-index order, so the
  // recorded error lines are deterministic regardless of scheduling.
  SweepFailureSummary summary;
  summary.shards = points.size();
  for (const auto& r : results) {
    if (r.attempts > 1) {
      ++summary.retried;
      if (r.ok) ++summary.recovered;
    }
    if (!r.ok) {
      ++summary.failed;
      if (summary.errors.size() < SweepFailureSummary::kMaxErrors) {
        summary.errors.push_back(strf("shard %zu: %s", r.point.index, r.error.c_str()));
      }
    }
  }

  auto& registry = obs::metrics();
  registry.counter("sweep/runs").inc();
  registry.counter("sweep/points").inc(points.size());
  if (summary.retried > 0) registry.counter("sweep/shard_retries").inc(summary.retried);
  if (summary.failed > 0) registry.counter("sweep/shard_failures").inc(summary.failed);
  if (failures != nullptr) failures->merge(summary);
  return results;
}

Histogram merge_histograms(const std::vector<SweepResult>& results, const SweepOptions& options) {
  Histogram merged(options.hist_lo, options.hist_hi, options.hist_buckets);
  for (const auto& r : results) {
    if (r.ok) merged.merge(r.histogram);
  }
  return merged;
}

std::vector<LoadSweepPoint> predict_load_sweep(const Analyzer& analyzer, const Analysis& analysis,
                                               const WorkloadSummary& base,
                                               const std::vector<double>& loads_pps,
                                               const AnalyzeOptions& options, std::size_t jobs,
                                               SweepFailureSummary* failures) {
  const passes::DataflowGraph& graph = *analysis.graph;
  const mapping::Mapper mapper(analyzer.profile());

  std::vector<LoadSweepPoint> out(loads_pps.size());
  SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  const auto grid = make_grid(loads_pps, {}, base.profile.seed);
  run_sweep(grid,
            [&](const SweepPoint& point, SweepResult& result) {
              auto& slot = out[point.index];
              slot = LoadSweepPoint{};  // retries rewrite the slot from scratch
              slot.pps = point.load_pps;
              slot.seed = point.seed;
              workload::WorkloadProfile shard = base.profile;
              shard.pps = point.load_pps;
              shard.seed = point.seed;
              const auto summary = analyzer.summarize(shard, options);
              auto prediction =
                  predict(analysis.lowered, graph, analysis.mapping, mapper, *summary, options.predict);
              if (!prediction) {
                result.ok = false;
                result.error = slot.error = prediction.error().message;
                return;
              }
              slot.prediction = std::move(prediction).value();
              slot.ok = true;
              result.value = slot.prediction.mean_latency_us;
              result.stats.add(slot.prediction.mean_latency_us);
            },
            sweep_options, failures);
  return out;
}

}  // namespace clara::core
