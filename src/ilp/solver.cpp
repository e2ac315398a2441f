#include "ilp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/parallel.hpp"
#include "fault/fault.hpp"
#include "ilp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/pool.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace clara::ilp {

namespace {

struct Node {
  std::vector<double> lo;
  std::vector<double> hi;
  double bound = -kInf;  // LP relaxation objective (lower bound for min)
  /// Parent's optimal basis, used to warm-start this node's relaxation.
  std::vector<std::size_t> warm_basis;
  /// Creation order — the deterministic tie-break for equal bounds, so
  /// the search visits nodes in the same order at every jobs level.
  std::uint64_t seq = 0;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) const {
    if (a->bound != b->bound) return a->bound > b->bound;  // best-bound-first
    return a->seq > b->seq;                                // then oldest-first
  }
};

/// Nodes popped per wave. The relaxations of one wave solve in
/// parallel; their results are applied strictly in pop order, which is
/// what makes the search deterministic. Fixed (never derived from the
/// jobs level) so the explored node sequence is identical at every
/// concurrency setting.
constexpr std::size_t kWaveWidth = 16;

/// Sibling nodes batched per pool task when a wave's relaxations run
/// concurrently. Node LPs are short (tens of microseconds warm), so one
/// task per node spends a visible fraction of the wave on submit/steal
/// overhead; batching amortizes it. Purely a scheduling knob: results
/// are applied in pop order regardless, so the returned Solution is
/// bit-identical at every grain.
constexpr std::size_t kWaveGrain = 4;

/// Integrality tolerance: values within this of an integer count.
constexpr double kIntTol = 1e-6;

struct WaveResult {
  Solution relax;
  bool solved = false;
};

}  // namespace

int pick_branch_var(const Model& model, const std::vector<double>& values, double tol) {
  int best = -1;
  double best_score = -1.0;
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    if (model.variables()[i].kind == VarKind::kContinuous) continue;
    const double v = values[i];
    const double frac = std::abs(v - std::round(v));
    if (frac <= tol) continue;
    // Most-fractional rule: score peaks at frac == 0.5 and is symmetric
    // around it; strict > keeps the lowest index on exact ties.
    const double score = 0.5 - std::abs(frac - 0.5);
    if (score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

Solution solve_milp(const Model& model, const SolveOptions& options) {
  CLARA_TRACE_SCOPE("ilp/branch_and_bound");
  if (!model.has_integers()) return solve_lp(model);

  const auto pool_before = parallel::pool().stats();

  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  incumbent.objective = kInf;
  std::size_t total_pivots = 0;
  std::vector<IncumbentStep> trajectory;

  std::uint64_t next_seq = 0;
  auto root = std::make_shared<Node>();
  root->lo.resize(model.num_vars());
  root->hi.resize(model.num_vars());
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    root->lo[i] = model.variables()[i].lo;
    root->hi[i] = model.variables()[i].hi;
  }
  root->seq = next_seq++;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>, NodeOrder> open;
  open.push(root);

  std::size_t explored = 0;
  std::uint64_t wave_index = 0;
  bool hit_limit = false;
  bool hit_deadline = false;
  std::vector<std::shared_ptr<Node>> wave;
  std::vector<WaveResult> results;

  while (!open.empty()) {
    // The deadline is checked only here, at the wave boundary: the node
    // sequence explored before the stop is always a prefix of the
    // deterministic no-deadline sequence, and a budget short enough to
    // expire before the first wave stops identically at every jobs
    // level (what the determinism tests rely on). The fault site rides
    // the same check, keyed by the wave index — itself deterministic —
    // so an injected "spurious timeout" reproduces bit-identically.
    const std::uint64_t this_wave = wave_index;
    if (options.deadline && std::chrono::steady_clock::now() >= *options.deadline) {
      hit_deadline = true;
      // Deadline expiry is a failure-adjacent event: the mapping that
      // comes back is best-effort. Preserve the run-up for diagnosis
      // (auto_dump throttles itself to once per process).
      obs::recorder().auto_dump("ilp_deadline");
      break;
    }
    if (fault::inject("ilp/wave_timeout", wave_index++)) {
      hit_deadline = true;  // the fault site dumps the recorder itself
      break;
    }
    // Form a wave of the globally best open nodes. Wave composition
    // depends only on the heap (deterministic), never on timing.
    wave.clear();
    while (wave.size() < kWaveWidth && !open.empty() && explored + wave.size() < options.max_nodes) {
      wave.push_back(open.top());
      open.pop();
    }
    if (wave.empty()) {
      hit_limit = true;  // node budget exhausted with work remaining
      break;
    }

    // Solve the wave's LP relaxations concurrently. Pruning here uses
    // the incumbent as of the wave boundary — a deterministic snapshot —
    // so which nodes get solved never depends on thread scheduling.
    // (A node that an in-wave incumbent would prune is solved anyway and
    // discarded below: wasted work, never wrong results.)
    const double wave_incumbent = incumbent.objective;
    results.assign(wave.size(), WaveResult{});
    obs::record(obs::FlightEventKind::kWaveEnter, this_wave, wave.size());
    const auto wave_t0 = std::chrono::steady_clock::now();
    parallel::parallel_for_jobs(
        options.jobs, 0, wave.size(),
        [&](std::size_t i) {
          const auto& node = wave[i];
          if (node->bound >= wave_incumbent - 1e-12) return;
          LpOptions lp_options;
          lp_options.lo_override = node->lo;
          lp_options.hi_override = node->hi;
          lp_options.warm_basis = node->warm_basis;
          results[i].relax = solve_lp(model, lp_options);
          results[i].solved = true;
        },
        kWaveGrain);
    // The wave barrier just completed: every relaxation is done and the
    // caller waited for the slowest one. Per-wave wall time is the
    // barrier-wait figure `clara profile` and the wave histogram report.
    const auto wave_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wave_t0)
                             .count();
    obs::record(obs::FlightEventKind::kWaveExit, this_wave,
                static_cast<std::uint64_t>(wave_ns));
    obs::metrics().histogram("ilp/wave_ns").observe(static_cast<double>(wave_ns));

    // Apply results strictly in pop order. Everything below is serial
    // and a pure function of (model, options, wave, results), so the
    // incumbent trajectory, node/pivot counts, and final Solution are
    // bit-identical at every jobs level.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const auto& node = wave[i];
      ++explored;

      // Bound pruning against the incumbent (which may have improved
      // earlier in this wave — discarded solves leave no trace, not
      // even their pivots).
      if (node->bound >= incumbent.objective - 1e-12) continue;

      const Solution& relax = results[i].relax;
      total_pivots += relax.pivots;
      if (relax.status == SolveStatus::kInfeasible) continue;
      if (relax.status == SolveStatus::kUnbounded) {
        // An unbounded relaxation of a bounded-integer problem means the
        // continuous part is unbounded; report it.
        Solution out;
        out.status = SolveStatus::kUnbounded;
        out.nodes_explored = explored;
        return out;
      }
      if (relax.status == SolveStatus::kLimit) {
        hit_limit = true;
        continue;
      }
      if (relax.objective >= incumbent.objective - 1e-12) continue;

      const int branch_var = pick_branch_var(model, relax.values, kIntTol);
      if (branch_var < 0) {
        // Integral: new incumbent. Its basis is kept on the Solution so
        // a re-solve of the same model can warm-start from it.
        Solution candidate = relax;
        // Snap near-integers exactly.
        for (std::size_t v = 0; v < model.num_vars(); ++v) {
          if (model.variables()[v].kind != VarKind::kContinuous) {
            candidate.values[v] = std::round(candidate.values[v]);
          }
        }
        if (candidate.objective < incumbent.objective) {
          incumbent = candidate;
          incumbent.status = SolveStatus::kOptimal;
          trajectory.push_back({explored, candidate.objective});
        }
        continue;
      }

      const double v = relax.values[static_cast<std::size_t>(branch_var)];
      auto down = std::make_shared<Node>();
      down->lo = node->lo;
      down->hi = node->hi;
      down->hi[static_cast<std::size_t>(branch_var)] = std::floor(v);
      down->bound = relax.objective;
      down->warm_basis = relax.basis;
      auto up = std::make_shared<Node>();
      up->lo = node->lo;
      up->hi = node->hi;
      up->lo[static_cast<std::size_t>(branch_var)] = std::ceil(v);
      up->bound = relax.objective;
      up->warm_basis = relax.basis;
      if (down->lo[static_cast<std::size_t>(branch_var)] <= down->hi[static_cast<std::size_t>(branch_var)]) {
        down->seq = next_seq++;
        open.push(down);
      }
      if (up->lo[static_cast<std::size_t>(branch_var)] <= up->hi[static_cast<std::size_t>(branch_var)]) {
        up->seq = next_seq++;
        open.push(up);
      }
    }
  }

  incumbent.nodes_explored = explored;
  incumbent.pivots = total_pivots;
  incumbent.incumbents = std::move(trajectory);
  incumbent.degraded = hit_deadline;
  if (incumbent.status != SolveStatus::kOptimal && (hit_limit || hit_deadline)) {
    incumbent.status = SolveStatus::kLimit;
  }

  auto& registry = obs::metrics();
  registry.counter("ilp/solves").inc();
  registry.counter("ilp/nodes_explored").inc(explored);
  registry.counter("ilp/pivots").inc(total_pivots);
  registry.counter("ilp/incumbents").inc(incumbent.incumbents.size());
  if (hit_deadline) registry.counter("ilp/deadline_hits").inc();
  obs::publish_pool_stats("ilp", pool_before, parallel::pool().stats());
  return incumbent;
}

}  // namespace clara::ilp
