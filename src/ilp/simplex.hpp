// Simplex solver for LP relaxations.
//
// The solver works on a Model, ignoring integrality (branch-and-bound
// enforces it by tightening variable bounds). Bland's rule guards
// against cycling. It is a revised simplex: the constraint matrix stays
// in compressed sparse column form, the basis inverse is an eta file
// (product form), pricing works on BTRAN dual vectors dotted against
// pristine sparse columns, and only the entering column is ever
// materialized — a pivot costs O(m + eta file), not O(rows × cols).
#pragma once

#include <vector>

#include "ilp/model.hpp"

namespace clara::ilp {

struct LpOptions {
  /// Per-variable bound overrides used by branch-and-bound; empty means
  /// use the model's own bounds. Sized num_vars when present.
  std::vector<double> lo_override;
  std::vector<double> hi_override;
  /// Warm-start basis (standard-form column index per row), typically
  /// the parent node's Solution::basis. Branching only changes bound
  /// values, which is an rhs-only perturbation of the standard form, so
  /// the parent basis stays dual-feasible: the solver pivots into it,
  /// repairs primal feasibility with dual simplex, and skips phase 1.
  /// Ignored (cold solve) when structurally incompatible.
  std::vector<std::size_t> warm_basis;
};

/// Solves the LP relaxation. Solution::values has one entry per model
/// variable (in model order) when status is kOptimal.
Solution solve_lp(const Model& model, const LpOptions& options = {});

}  // namespace clara::ilp
