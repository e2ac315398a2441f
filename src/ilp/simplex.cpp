// Two-phase revised simplex over a sparse standard form.
//
// The constraint matrix stays in compressed sparse column form and no
// tableau exists at all: the basis inverse is kept as an eta file
// (product form of the inverse), the dual vector pi = c_B' B^-1 comes
// from one BTRAN pass per iteration, and a candidate's reduced cost is a
// sparse dot against its *pristine* CSC column. Pricing therefore costs
// O(nnz) per candidate instead of O(rows), and only the handful of
// columns a pivot actually needs — the entering column, warm installs,
// refactorization replays — are ever materialized: scatter the pristine
// column, then one FTRAN replay of the eta file. A pivot costs
// O(m + eta file) instead of O(rows × cols).
//
// tests/engine_golden_test.cpp pins the pivot trajectory (status,
// objective, pivot and node counts, value and basis digests) on the
// synthetic instance factories, warm starts, and the example mappings.
//
// Branch-and-bound calls solve_lp once per node, so per-solve setup
// cost is as hot as the pivot loop. All scratch — the standard form,
// the engine, the eta pool — lives in a thread-local workspace and is
// reused across solves; buffers are logically reinitialized but keep
// their capacity.
#include "ilp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"

namespace clara::ilp {

namespace {

constexpr double kEps = 1e-9;
constexpr std::size_t kNone = ~std::size_t{0};

/// Dual simplex pivot tolerance, relative to the pivot row's largest
/// entry: a smaller entry is noise in a row of that scale, and pivoting
/// on it divides the row by that noise.
constexpr double kPivotTol = 1e-7;

/// Largest relative gap between a pivot entry priced from its row (BTRAN)
/// and read from its column (FTRAN) that one eta file may show.
constexpr double kAgree = 1e-6;

/// Iterations one run of primal or dual simplex may take before it
/// reports kLimit.
constexpr std::size_t kMaxPivots = 200'000;

/// Counted pivots between basis refactorizations. Refactorizing
/// replays the current basis from the pristine matrix, which resets
/// accumulated floating-point drift and truncates the eta file — and
/// the eta file's length is what every BTRAN/FTRAN pass pays, so the
/// interval bounds per-iteration pricing cost too. The clock counts
/// from solve start (warm installs included), so short node solves
/// never refactorize mid-solve; long degenerate solves do, and the
/// cleaner numerics usually saves them pivots outright — on the B&B
/// bench this cadence cuts total pivots by more than half versus never
/// refactorizing.
constexpr std::size_t kRefactorEvery = 40;

/// Standard-form problem: minimize c'y subject to A y = b, y >= 0,
/// built from the model by shifting variables to zero lower bounds,
/// adding upper-bound rows, and introducing slack/surplus columns
/// (artificials are appended per-solve by the engine). The matrix is
/// stored sparse, compressed by column; entries within a column are
/// ordered by row.
struct Standard {
  std::size_t n_model = 0;  // original variable count
  std::size_t n = 0;        // structural columns (model + slack/surplus)
  std::size_t m = 0;        // rows
  std::vector<std::size_t> col_ptr;  // n + 1
  std::vector<std::size_t> col_row;  // nnz
  std::vector<double> col_val;       // nnz
  std::vector<double> b;
  std::vector<double> c;      // length n
  std::vector<double> shift;  // y_i = x_i - lo_i for model vars
  double obj_const = 0.0;
  bool infeasible_bounds = false;
};

/// Reused row-major staging for build_standard: constraint rows are
/// assembled flat, normalized, then transposed into the Standard's CSC
/// arrays. Nothing here allocates once capacities warm up.
struct BuildScratch {
  std::vector<double> lo, hi, merge;
  std::vector<std::size_t> row_ptr;  // m + 1, into row_col/row_val
  std::vector<std::size_t> row_col;
  std::vector<double> row_val;
  std::vector<Sense> row_sense;
  std::vector<double> row_rhs;
  std::vector<std::size_t> col_cursor;
};

void build_standard(const Model& model, const LpOptions& options, Standard& s,
                    BuildScratch& bs) {
  s.n_model = model.num_vars();
  s.infeasible_bounds = false;
  s.obj_const = 0.0;

  bs.lo.resize(s.n_model);
  bs.hi.resize(s.n_model);
  for (std::size_t i = 0; i < s.n_model; ++i) {
    const auto& v = model.variables()[i];
    bs.lo[i] = options.lo_override.empty() ? v.lo : options.lo_override[i];
    bs.hi[i] = options.hi_override.empty() ? v.hi : options.hi_override[i];
    if (bs.lo[i] > bs.hi[i] + kEps) s.infeasible_bounds = true;
  }
  if (s.infeasible_bounds) return;

  s.shift = bs.lo;

  // Row construction: model constraints (with senses) then upper-bound
  // rows for variables with finite hi. Rows hold only their nonzero
  // coefficients; a zero coefficient's contribution to the shifted rhs
  // is an exact no-op, so skipping it preserves the arithmetic.
  bs.merge.assign(s.n_model, 0.0);
  bs.row_ptr.clear();
  bs.row_col.clear();
  bs.row_val.clear();
  bs.row_sense.clear();
  bs.row_rhs.clear();
  bs.row_ptr.push_back(0);
  for (const auto& con : model.constraints()) {
    // Merge duplicate terms exactly like LinExpr::dense (accumulate in
    // term order), then gather in index order.
    for (const auto& t : con.expr.terms()) bs.merge[static_cast<std::size_t>(t.var)] += t.coef;
    double rhs = con.rhs - con.expr.constant();
    // Shift variables: Σ a_i (y_i + lo_i) ⋈ rhs.
    for (std::size_t i = 0; i < s.n_model; ++i) {
      const double coef = bs.merge[i];
      bs.merge[i] = 0.0;
      if (coef == 0.0) continue;
      rhs -= coef * bs.lo[i];
      bs.row_col.push_back(i);
      bs.row_val.push_back(coef);
    }
    bs.row_ptr.push_back(bs.row_col.size());
    bs.row_sense.push_back(con.sense);
    bs.row_rhs.push_back(rhs);
  }
  for (std::size_t i = 0; i < s.n_model; ++i) {
    if (bs.hi[i] == kInf) continue;
    bs.row_col.push_back(i);
    bs.row_val.push_back(1.0);
    bs.row_ptr.push_back(bs.row_col.size());
    bs.row_sense.push_back(Sense::kLe);
    bs.row_rhs.push_back(bs.hi[i] - bs.lo[i]);
  }

  s.m = bs.row_sense.size();
  // Columns: model vars + one slack/surplus per inequality.
  std::size_t extra = 0;
  for (const auto sense : bs.row_sense) {
    if (sense != Sense::kEq) ++extra;
  }
  s.n = s.n_model + extra;

  // Normalize to non-negative rhs, then transpose row-major staging
  // into CSC (rows visited in order keep each column's entries
  // row-sorted).
  s.b.assign(s.m, 0.0);
  for (std::size_t r = 0; r < s.m; ++r) {
    if (bs.row_rhs[r] < 0) {
      for (std::size_t k = bs.row_ptr[r]; k < bs.row_ptr[r + 1]; ++k) {
        bs.row_val[k] = -bs.row_val[k];
      }
      bs.row_rhs[r] = -bs.row_rhs[r];
      if (bs.row_sense[r] == Sense::kLe) {
        bs.row_sense[r] = Sense::kGe;
      } else if (bs.row_sense[r] == Sense::kGe) {
        bs.row_sense[r] = Sense::kLe;
      }
    }
    s.b[r] = bs.row_rhs[r];
  }
  bs.col_cursor.assign(s.n + 1, 0);
  for (const auto col : bs.row_col) ++bs.col_cursor[col + 1];
  std::size_t slack_col = s.n_model;
  for (std::size_t r = 0; r < s.m; ++r) {
    if (bs.row_sense[r] != Sense::kEq) ++bs.col_cursor[slack_col++ + 1];
  }
  s.col_ptr.assign(s.n + 1, 0);
  for (std::size_t j = 0; j < s.n; ++j) s.col_ptr[j + 1] = s.col_ptr[j] + bs.col_cursor[j + 1];
  const std::size_t nnz = s.col_ptr[s.n];
  s.col_row.resize(nnz);
  s.col_val.resize(nnz);
  std::copy(s.col_ptr.begin(), s.col_ptr.end() - 1, bs.col_cursor.begin());
  slack_col = s.n_model;
  for (std::size_t r = 0; r < s.m; ++r) {
    for (std::size_t k = bs.row_ptr[r]; k < bs.row_ptr[r + 1]; ++k) {
      const std::size_t at = bs.col_cursor[bs.row_col[k]]++;
      s.col_row[at] = r;
      s.col_val[at] = bs.row_val[k];
    }
    if (bs.row_sense[r] != Sense::kEq) {
      const std::size_t at = bs.col_cursor[slack_col]++;
      s.col_row[at] = r;
      s.col_val[at] = bs.row_sense[r] == Sense::kLe ? 1.0 : -1.0;
      ++slack_col;
    }
  }

  // Objective over shifted variables.
  s.c.assign(s.n, 0.0);
  const auto obj = model.objective().dense(s.n_model);
  s.obj_const = model.objective().constant();
  for (std::size_t i = 0; i < s.n_model; ++i) {
    s.c[i] = obj[i];
    s.obj_const += obj[i] * bs.lo[i];
  }
}

/// Initial basis from slack columns: a slack with +1 in exactly one
/// row (which is every kLe slack by construction) can start basic for
/// that row. Rows left kNone get an artificial.
void detect_initial_basis(const Standard& s, std::vector<std::size_t>& basis) {
  basis.assign(s.m, kNone);
  for (std::size_t j = s.n_model; j < s.n; ++j) {
    const std::size_t begin = s.col_ptr[j];
    if (s.col_ptr[j + 1] - begin != 1) continue;
    if (s.col_val[begin] != 1.0) continue;
    const std::size_t r = s.col_row[begin];
    if (basis[r] == kNone) basis[r] = j;
  }
}

/// Product-form basis inverse: pivot k is one Gauss-Jordan step stored
/// as its pivot row, pivot value, and off-row multipliers. FTRAN replays
/// the steps forward to carry a pristine column to the current tableau;
/// BTRAN runs them transposed, in reverse, to form dual vectors
/// (pi = c_B' B^-1, single rows of B^-1) without materializing any
/// column at all.
struct EtaFile {
  struct Eta {
    std::uint32_t row = 0;
    double pivot = 1.0;
    std::size_t begin = 0;  // range in mult_row/mult_val
    std::size_t end = 0;
  };
  std::vector<Eta> etas;
  std::vector<std::uint32_t> mult_row;
  std::vector<double> mult_val;

  void clear() {
    etas.clear();
    mult_row.clear();
    mult_val.clear();
  }

  /// Records the pivot at `row` from the materialized column w. Rows
  /// whose coefficient is below kEps get no multiplier: the update
  /// skips them.
  void record(std::size_t row, const double* w, std::size_t m) {
    Eta e;
    e.row = static_cast<std::uint32_t>(row);
    e.pivot = w[row];
    e.begin = mult_row.size();
    for (std::size_t r = 0; r < m; ++r) {
      if (r == row) continue;
      if (std::abs(w[r]) < kEps) continue;
      mult_row.push_back(static_cast<std::uint32_t>(r));
      mult_val.push_back(w[r]);
    }
    e.end = mult_row.size();
    etas.push_back(e);
  }

  /// v := E_k ··· E_1 v, applied to a freshly scattered pristine
  /// column.
  void ftran(double* v) const {
    for (const Eta& e : etas) {
      v[e.row] /= e.pivot;
      const double pv = v[e.row];
      for (std::size_t k = e.begin; k < e.end; ++k) {
        v[mult_row[k]] -= mult_val[k] * pv;
      }
    }
  }

  /// u := u E_k ··· E_1 — row-vector form, applied in reverse. Each
  /// eta differs from the identity only in its pivot column, so only
  /// u[row] changes per step.
  void btran(double* u) const {
    for (std::size_t i = etas.size(); i-- > 0;) {
      const Eta& e = etas[i];
      double acc = u[e.row];
      for (std::size_t k = e.begin; k < e.end; ++k) {
        acc -= mult_val[k] * u[mult_row[k]];
      }
      u[e.row] = acc / e.pivot;
    }
  }
};

/// All simplex decisions. Phase 1 minimizes the artificial sum, phase 2
/// the true objective; warm starts install a parent basis and repair
/// with dual simplex. Every entry point (solve, solve_warm)
/// re-initializes from the pristine standard form, so a failed warm
/// install cannot leak partial state into the cold fallback.
class Engine {
 public:
  Solution solve(const Standard& s, const Model& model) {
    bind(s);
    Solution sol;
    if (s_->infeasible_bounds) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }

    detect_initial_basis(*s_, basis_);
    artificials_.clear();
    art_rows_.clear();
    n_total_ = s_->n;
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] != kNone) continue;
      artificials_.push_back(n_total_);
      art_rows_.push_back(r);
      basis_[r] = n_total_;
      ++n_total_;
    }
    c_ = s_->c;
    c_.resize(n_total_, 0.0);
    init_state();

    // Phase 1.
    if (!artificials_.empty()) {
      phase1_cost_.assign(n_total_, 0.0);
      for (const auto j : artificials_) phase1_cost_[j] = 1.0;
      const auto status = run(phase1_cost_);
      if (status != SolveStatus::kOptimal) {
        sol.status = status == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : status;
        sol.pivots = pivots_done_;
        return sol;
      }
      double art_sum = 0.0;
      for (std::size_t r = 0; r < m_; ++r) {
        if (is_art_[basis_[r]]) art_sum += x_b_[r];
      }
      if (art_sum > 1e-7) {
        sol.status = SolveStatus::kInfeasible;
        sol.pivots = pivots_done_;
        return sol;
      }
      // Pivot remaining (degenerate) artificials out of the basis.
      for (std::size_t r = 0; r < m_; ++r) {
        if (!is_art_[basis_[r]]) continue;
        for (std::size_t j = 0; j < s_->n; ++j) {
          const double* col = column(j);
          if (std::abs(col[r]) > kEps) {
            pivot(r, j, col);
            break;
          }
        }
        // A row with no pivotable column is all-zero: redundant; the
        // artificial stays basic at value 0, which is harmless.
      }
    }

    // Phase 2: forbid artificials from re-entering by skipping them as
    // entering candidates inside run().
    phase2_ = true;
    sol = extract(model, run(c_));
    sol.pivots = pivots_done_;
    return sol;
  }

  /// Warm-started solve: pivot into `warm` (a parent-optimal basis),
  /// repair primal feasibility with dual simplex, then finish with
  /// primal phase 2 — phase 1 and its artificials are skipped
  /// entirely. Returns false when the basis is structurally
  /// incompatible or numerically singular; the engine re-standardizes
  /// on the next solve()/solve_warm() call, so the partial install
  /// cannot poison a fallback cold solve.
  bool solve_warm(const Standard& s, const Model& model, const std::vector<std::size_t>& warm,
                  Solution& out) {
    bind(s);
    if (s_->infeasible_bounds || warm.size() != m_) return false;
    seen_.assign(s_->n, 0);
    for (const auto j : warm) {
      if (j >= s_->n || seen_[j]) return false;
      seen_[j] = 1;
    }

    basis_.assign(m_, kNone);
    artificials_.clear();
    art_rows_.clear();
    n_total_ = s_->n;
    c_ = s_->c;
    init_state();

    // Gauss-Jordan into the warm basis: for each basis column pick the
    // still-unassigned row with the largest pivot magnitude.
    row_done_.assign(m_, 0);
    for (const auto j : warm) {
      const double* w = column(j);
      std::size_t best_r = kNone;
      double best_abs = 1e-7;  // tighter than kEps: a near-singular basis is not worth keeping
      for (std::size_t r = 0; r < m_; ++r) {
        if (row_done_[r]) continue;
        const double mag = std::abs(w[r]);
        if (mag > best_abs) {
          best_abs = mag;
          best_r = r;
        }
      }
      if (best_r == kNone) return false;  // singular under this basis
      pivot(best_r, j, w);
      row_done_[best_r] = 1;
    }

    // The parent basis is dual-feasible here (branching is an rhs-only
    // change: bound overrides move `shift` and upper-bound rows, and the
    // sign-normalization is a row rescaling that reduced costs do not
    // see), so dual simplex restores b >= 0 without phase 1.
    auto status = dual_run();
    phase2_ = true;
    if (status == SolveStatus::kOptimal) status = run(c_);
    out = extract(model, status);
    out.pivots = pivots_done_;
    return true;
  }

 private:
  void bind(const Standard& s) {
    s_ = &s;
    m_ = s.m;
  }

  void init_state() {
    x_b_ = s_->b;
    in_basis_.assign(n_total_, 0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] != kNone) in_basis_[basis_[r]] = 1;
    }
    is_art_.assign(n_total_, 0);
    for (const auto j : artificials_) is_art_[j] = 1;
    eta_.clear();
    scratch_.resize(m_);
    phase2_ = false;
    pivots_done_ = 0;
    since_refactor_ = 0;
    refactor_failed_ = false;
  }

  /// Current tableau column j (B^-1 A_j): the pristine column (or the
  /// artificial's unit column) scattered into scratch, then one FTRAN
  /// pass. Valid until the next call.
  const double* column(std::size_t j) {
    double* v = scratch_.data();
    std::fill(v, v + m_, 0.0);
    if (j < s_->n) {
      for (std::size_t k = s_->col_ptr[j]; k < s_->col_ptr[j + 1]; ++k) {
        v[s_->col_row[k]] = s_->col_val[k];
      }
    } else {
      v[art_rows_[j - s_->n]] = 1.0;
    }
    eta_.ftran(v);
    return v;
  }

  /// Performs the basis change at (row, col). `w` is the current
  /// tableau column of `col` (B^-1 A_col), already materialized by the
  /// caller; the eta recorded from it is what every later FTRAN/BTRAN
  /// pass replays.
  void pivot(std::size_t row, std::size_t col, const double* w, bool count = true) {
    const double p = w[row];
    assert(std::abs(p) > kEps);
    eta_.record(row, w, m_);
    // The rhs sees the same update the tableau rows do.
    x_b_[row] /= p;
    const double xb_row = x_b_[row];
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == row) continue;
      const double factor = w[r];
      if (std::abs(factor) < kEps) continue;
      x_b_[r] -= factor * xb_row;
    }
    if (basis_[row] != kNone) in_basis_[basis_[row]] = 0;
    basis_[row] = col;
    in_basis_[col] = 1;
    if (count) {
      ++pivots_done_;
      ++since_refactor_;
    }
  }

  /// Replays the current basis from the pristine matrix, discarding
  /// accumulated update history (the eta file shrinks back to one eta
  /// per basis column). Uncounted pivots: refactorization is
  /// bookkeeping, not simplex progress.
  void refactor() {
    refactor_basis_ = basis_;
    eta_.clear();
    x_b_ = s_->b;
    basis_.assign(m_, kNone);
    in_basis_.assign(n_total_, 0);
    row_done_.assign(m_, 0);
    for (const auto col : refactor_basis_) {
      const double* w = column(col);
      std::size_t best_r = kNone;
      double best_abs = kEps;
      for (std::size_t r = 0; r < m_; ++r) {
        if (row_done_[r]) continue;
        const double mag = std::abs(w[r]);
        if (mag > best_abs) {
          best_abs = mag;
          best_r = r;
        }
      }
      if (best_r == kNone) {
        // A truly singular basis: the solve cannot continue soundly.
        refactor_failed_ = true;
        return;
      }
      pivot(best_r, col, w, /*count=*/false);
      row_done_[best_r] = 1;
    }
    since_refactor_ = 0;
  }

  /// pi = c_B' B^-1 via one BTRAN pass; the pricing loops dot it
  /// against pristine CSC columns instead of materializing B^-1 A_j.
  void compute_duals(const std::vector<double>& cost) {
    pi_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) pi_[r] = cost[basis_[r]];
    eta_.btran(pi_.data());
  }

  /// Reduced cost r_j = c_j - pi · A_j against the pristine column:
  /// O(nnz) per candidate, independent of the row count.
  double reduced_cost(std::size_t j, const std::vector<double>& cost) const {
    double red = cost[j];
    if (j < s_->n) {
      for (std::size_t k = s_->col_ptr[j]; k < s_->col_ptr[j + 1]; ++k) {
        red -= pi_[s_->col_row[k]] * s_->col_val[k];
      }
    } else {
      red -= pi_[art_rows_[j - s_->n]];
    }
    return red;
  }

  SolveStatus run(const std::vector<double>& cost) {
    std::size_t pivots = 0;
    while (true) {
      if (++pivots > kMaxPivots) return SolveStatus::kLimit;
      if (since_refactor_ >= kRefactorEvery) refactor();
      if (refactor_failed_) return SolveStatus::kLimit;

      // Bland's rule over pi-priced reduced costs: the first improving
      // index enters. Only that one column is ever materialized.
      compute_duals(cost);
      std::size_t entering = kNone;
      for (std::size_t j = 0; j < n_total_; ++j) {
        if (in_basis_[j]) continue;
        if (phase2_ && is_art_[j]) continue;
        if (reduced_cost(j, cost) < -1e-8) {
          entering = j;
          break;
        }
      }
      if (entering == kNone) return SolveStatus::kOptimal;

      // Ratio test (Bland: smallest basis index breaks ties).
      const double* col = column(entering);
      std::size_t leaving = kNone;
      double best_ratio = kInf;
      for (std::size_t r = 0; r < m_; ++r) {
        if (col[r] > kEps) {
          const double ratio = x_b_[r] / col[r];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && (leaving == kNone || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == kNone) return SolveStatus::kUnbounded;
      pivot(leaving, entering, col);
    }
  }

  /// Dual simplex. Precondition: reduced costs >= 0 (dual feasibility);
  /// drives b >= 0 while keeping them so. Leaving row: smallest index
  /// with b < -eps (Bland-safe); entering: minimum ratio
  /// reduced_j / |a[row][j]| over a[row][j] < -tol, where the pivot row
  /// a[row][·] is priced as rho · A_j with rho = row `row` of B^-1
  /// (one BTRAN of a unit vector) and tol is kPivotTol of the row's
  /// largest |a[row][j]| (at least kEps). A row with no coefficient below
  /// -tol proves primal infeasibility. The chosen entry is checked on its
  /// FTRAN column before the pivot: when the two disagree, the eta file
  /// has drifted, so the basis is refactored and the row priced again
  /// (counted in ilp/pivot_retries).
  SolveStatus dual_run() {
    static auto& retries = obs::metrics().counter("ilp/pivot_retries");
    std::size_t pivots = 0;
    while (true) {
      if (++pivots > kMaxPivots) return SolveStatus::kLimit;
      if (since_refactor_ >= kRefactorEvery) refactor();
      if (refactor_failed_) return SolveStatus::kLimit;
      const bool fresh = since_refactor_ == 0;
      std::size_t row = kNone;
      for (std::size_t r = 0; r < m_; ++r) {
        if (x_b_[r] < -kEps) {
          row = r;
          break;
        }
      }
      if (row == kNone) return SolveStatus::kOptimal;
      compute_duals(c_);
      rho_.assign(m_, 0.0);
      rho_[row] = 1.0;
      eta_.btran(rho_.data());
      // Basic columns are unit vectors with a zero in `row` (or +1 for
      // the row's own basis column), so they never qualify as entering.
      row_.resize(s_->n);
      double row_max = 0.0;
      for (std::size_t j = 0; j < s_->n; ++j) {
        double a_rj = 0.0;
        for (std::size_t k = s_->col_ptr[j]; k < s_->col_ptr[j + 1]; ++k) {
          a_rj += rho_[s_->col_row[k]] * s_->col_val[k];
        }
        row_[j] = a_rj;
        row_max = std::max(row_max, std::abs(a_rj));
      }
      const double tol = std::max(kEps, kPivotTol * row_max);
      std::size_t entering = kNone;
      double best_ratio = kInf;
      for (std::size_t j = 0; j < s_->n; ++j) {
        const double a_rj = row_[j];
        if (a_rj >= -tol) continue;
        const double ratio = std::max(0.0, reduced_cost(j, c_)) / -a_rj;
        if (ratio < best_ratio - kEps) {
          best_ratio = ratio;
          entering = j;
        }
      }
      if (entering == kNone) return SolveStatus::kInfeasible;
      const double* w = column(entering);
      const double a_rj = row_[entering];
      if (w[row] >= -kEps || std::abs(w[row] - a_rj) > kAgree * std::abs(a_rj)) {
        // A fresh factorization prices both ways alike; if it still
        // disagrees the basis is numerically singular.
        if (fresh) return SolveStatus::kLimit;
        retries.inc();
        refactor();
        continue;
      }
      pivot(row, entering, w);
    }
  }

  Solution extract(const Model& model, SolveStatus status) {
    Solution sol;
    sol.status = status;
    if (status != SolveStatus::kOptimal) return sol;
    y_.assign(n_total_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) y_[basis_[r]] = x_b_[r];
    sol.values.assign(model.num_vars(), 0.0);
    double obj = s_->obj_const;
    for (std::size_t i = 0; i < s_->n_model; ++i) {
      sol.values[i] = y_[i] + s_->shift[i];
      obj += c_[i] * y_[i];
    }
    sol.objective = obj;
    // Record the basis for descendants — only when no (degenerate)
    // artificial is still basic, since artificial columns do not exist
    // in a child's standard form.
    bool clean = true;
    for (std::size_t r = 0; r < m_; ++r) clean = clean && basis_[r] < s_->n;
    if (clean) sol.basis = basis_;
    return sol;
  }

  const Standard* s_ = nullptr;
  std::size_t m_ = 0;
  EtaFile eta_;
  std::size_t n_total_ = 0;
  std::vector<std::size_t> basis_;
  std::vector<std::uint8_t> in_basis_;
  std::vector<std::uint8_t> is_art_;
  std::vector<std::size_t> artificials_;  // column indices
  std::vector<std::size_t> art_rows_;     // rows the artificials cover
  std::vector<double> x_b_;               // current basic values (B^-1 b)
  std::vector<double> c_;                 // costs, resized over artificials
  std::vector<double> pi_;                // dual vector c_B' B^-1
  std::vector<double> rho_;               // one row of B^-1 (dual pricing)
  std::vector<double> row_;               // the pivot row rho · A_j (dual pricing)
  std::vector<double> scratch_;           // the column column() materializes
  std::vector<double> phase1_cost_;
  std::vector<double> y_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint8_t> row_done_;
  std::vector<std::size_t> refactor_basis_;
  bool phase2_ = false;
  bool refactor_failed_ = false;
  std::size_t pivots_done_ = 0;
  std::size_t since_refactor_ = 0;
};

/// Per-thread reusable solve state. Thread-local rather than shared:
/// branch-and-bound solves nodes concurrently on the pool, and the
/// whole point is to never touch the allocator on the hot path.
struct LpWorkspace {
  Standard std_form;
  BuildScratch build;
  Engine engine;
};

LpWorkspace& workspace() {
  thread_local LpWorkspace ws;
  return ws;
}

}  // namespace

Solution solve_lp(const Model& model, const LpOptions& options) {
  LpWorkspace& ws = workspace();
  build_standard(model, options, ws.std_form, ws.build);
  if (!options.warm_basis.empty()) {
    Solution sol;
    if (ws.engine.solve_warm(ws.std_form, model, options.warm_basis, sol)) return sol;
  }
  return ws.engine.solve(ws.std_form, model);
}

}  // namespace clara::ilp
