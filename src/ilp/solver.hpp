// Branch-and-bound MILP solver over the simplex LP relaxation.
#pragma once

#include <chrono>
#include <optional>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace clara::ilp {

struct SolveOptions {
  std::size_t max_nodes = 100'000;
  /// Concurrency for the branch-and-bound search (0 = the global
  /// parallel::jobs() level, 1 = fully serial). The returned Solution is
  /// bit-identical at every jobs value: node waves are formed and applied
  /// deterministically and only the LP relaxations run concurrently.
  std::size_t jobs = 0;
  /// Absolute wall-clock deadline. Checked only at wave boundaries, so
  /// the explored-node sequence up to the stop is the deterministic one;
  /// on expiry the best incumbent so far is returned with
  /// Solution::degraded set (status kLimit when no incumbent exists —
  /// callers then substitute their own fallback). nullopt = unbounded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Index of the integer variable whose fractional part is closest to
/// one half (the classic most-fractional branching rule), or -1 when
/// every integer variable is integral within tol. Ties break toward the
/// lowest variable index. Exposed for testing.
int pick_branch_var(const Model& model, const std::vector<double>& values, double tol);

/// Solves the model, honoring binary/integer variable kinds. Returns
/// kOptimal with the best integer solution, kInfeasible when none
/// exists, kLimit when the node or time budget ran out with no incumbent
/// (with an incumbent, kOptimal is returned — the caller can inspect
/// nodes_explored against max_nodes, or Solution::degraded for deadline
/// stops, if it cares about proof quality).
Solution solve_milp(const Model& model, const SolveOptions& options = {});

}  // namespace clara::ilp
