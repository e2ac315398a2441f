// Linear / integer programming model builder.
//
// Clara encodes its mapping problem (paper §3.4) as a small MILP; this
// module provides the model representation, a revised simplex for LP
// relaxations (ilp/simplex) and branch-and-bound over the integer
// variables (ilp/solver), with no external solver dependency.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace clara::ilp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarKind { kContinuous, kBinary, kInteger };

struct Variable {
  std::string name;
  VarKind kind = VarKind::kContinuous;
  double lo = 0.0;
  double hi = kInf;
};

struct LinTerm {
  int var = -1;
  double coef = 0.0;
};

/// A linear expression Σ coef·var + constant. Duplicate variables are
/// merged lazily by the consumers.
class LinExpr {
 public:
  LinExpr() = default;
  LinExpr(double constant) : constant_(constant) {}  // NOLINT(google-explicit-constructor)

  LinExpr& add(int var, double coef) {
    terms_.push_back({var, coef});
    return *this;
  }
  LinExpr& add_constant(double c) {
    constant_ += c;
    return *this;
  }
  LinExpr& operator+=(const LinExpr& other);

  [[nodiscard]] const std::vector<LinTerm>& terms() const { return terms_; }
  [[nodiscard]] double constant() const { return constant_; }

  /// Coefficient vector of length n (merging duplicates).
  [[nodiscard]] std::vector<double> dense(std::size_t n) const;

 private:
  std::vector<LinTerm> terms_;
  double constant_ = 0.0;
};

enum class Sense { kLe, kGe, kEq };

struct Constraint {
  LinExpr expr;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

class Model {
 public:
  int add_continuous(std::string name, double lo = 0.0, double hi = kInf);
  int add_binary(std::string name);
  int add_integer(std::string name, double lo, double hi);

  void add_constraint(LinExpr expr, Sense sense, double rhs, std::string name = {});

  /// Objective is always minimized; negate coefficients to maximize.
  void set_objective(LinExpr expr) { objective_ = std::move(expr); }

  [[nodiscard]] const std::vector<Variable>& variables() const { return vars_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return constraints_; }
  [[nodiscard]] const LinExpr& objective() const { return objective_; }
  [[nodiscard]] std::size_t num_vars() const { return vars_.size(); }
  [[nodiscard]] bool has_integers() const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> constraints_;
  LinExpr objective_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kLimit };

const char* to_string(SolveStatus status);

/// One improving integer solution found during branch-and-bound: after
/// exploring `node` nodes, the incumbent objective dropped to
/// `objective`. The trajectory shows how quickly the search converged
/// (a long flat tail means most nodes only proved optimality).
struct IncumbentStep {
  std::size_t node = 0;
  double objective = 0.0;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<double> values;
  double objective = 0.0;
  /// Branch-and-bound statistics (0 for pure LP solves).
  std::size_t nodes_explored = 0;
  /// Simplex pivots performed (summed over all LP relaxations for MILP
  /// solves).
  std::size_t pivots = 0;
  /// Incumbent trajectory, in discovery order (empty for pure LP solves).
  std::vector<IncumbentStep> incumbents;
  /// Optimal basis (standard-form column index per row), recorded by
  /// solve_lp when no artificial column is basic. Feed it to
  /// LpOptions::warm_basis to warm-start a child solve after a bound
  /// change. For MILP solves this is the incumbent's basis, usable to
  /// warm-start a re-solve of the same model. Empty otherwise.
  std::vector<std::size_t> basis;
  /// True when the search stopped at a deadline (SolveOptions::deadline)
  /// before proving optimality: the answer is the best incumbent found,
  /// not a certified optimum.
  bool degraded = false;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
  [[nodiscard]] double value(int var) const { return values.at(static_cast<std::size_t>(var)); }
};

}  // namespace clara::ilp
