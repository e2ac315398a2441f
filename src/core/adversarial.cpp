#include "core/adversarial.hpp"

namespace clara::core {

namespace {

Result<double> evaluate(const Analyzer& analyzer, const cir::Function& nf,
                        const workload::WorkloadProfile& profile) {
  // Summarized in the generator's own pass: prediction reads no packet.
  const auto summary = summarize(profile, analyzer.profile(), PredictOptions{}.payload_buckets);
  auto analysis = analyzer.analyze(nf, summary);
  if (!analysis) return analysis.error();
  return analysis.value().prediction.mean_latency_cycles;
}

}  // namespace

Result<AdversarialResult> find_adversarial_workload(const Analyzer& analyzer, const cir::Function& nf,
                                                    const workload::WorkloadProfile& seed,
                                                    const AdversarialOptions& options) {
  AdversarialResult result;
  workload::WorkloadProfile current = seed;
  current.packets = options.packets;

  auto seed_latency = evaluate(analyzer, nf, current);
  if (!seed_latency) return seed_latency.error();
  result.seed_latency_cycles = seed_latency.value();
  double best = seed_latency.value();
  result.evaluations = 1;

  // Coordinate ascent to a fixed point (or the evaluation budget).
  bool improved = true;
  while (improved && result.evaluations < options.max_evaluations) {
    improved = false;

    auto try_candidate = [&](workload::WorkloadProfile candidate) {
      if (result.evaluations >= options.max_evaluations) return;
      candidate.packets = options.packets;
      const auto latency = evaluate(analyzer, nf, candidate);
      ++result.evaluations;
      if (!latency) return;  // infeasible corner (e.g. Θ): skip, keep searching
      if (latency.value() > best * (1.0 + 1e-9)) {
        best = latency.value();
        current = candidate;
        improved = true;
        result.trajectory.push_back({candidate.serialize(), best});
      }
    };

    for (const auto payload : options.payloads) {
      auto candidate = current;
      candidate.payload_min = candidate.payload_max = payload;
      try_candidate(candidate);
    }
    for (const auto flows : options.flow_counts) {
      auto candidate = current;
      candidate.flows = flows;
      try_candidate(candidate);
    }
    for (const auto alpha : options.zipf_alphas) {
      auto candidate = current;
      candidate.zipf_alpha = alpha;
      try_candidate(candidate);
    }
    for (const auto tcp : options.tcp_fractions) {
      auto candidate = current;
      candidate.tcp_fraction = tcp;
      try_candidate(candidate);
    }
  }

  result.worst = current;
  result.worst_latency_cycles = best;
  return result;
}

}  // namespace clara::core
