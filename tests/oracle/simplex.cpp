#include "oracle/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace billcap::lp {

namespace {

/// How an original variable maps onto the nonnegative standard-form space.
struct VarMap {
  enum class Kind {
    kShifted,   ///< x = lower + x'          (finite lower bound)
    kMirrored,  ///< x = upper - x'          (lower = -inf, finite upper)
    kSplit,     ///< x = x'_pos - x'_neg     (free variable)
  };
  Kind kind = Kind::kShifted;
  int primary = -1;    ///< standard-form column
  int secondary = -1;  ///< second column for kSplit
  double offset = 0.0; ///< lower (kShifted) or upper (kMirrored)
};

/// A standard-form row: sum(a_j x'_j) relation rhs, rhs >= 0 after
/// normalization. `orig_row` is -1 for synthesized upper-bound rows.
struct StdRow {
  std::vector<double> coefs;  // dense over standard-form columns
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
  int orig_row = -1;
  bool sign_flipped = false;
};

constexpr double kNegInf = -kInfinity;

/// The dense two-phase tableau. Columns: [structural | slack/surplus |
/// artificial | rhs]. Row 0..m-1 are constraints; cost row kept separately.
class Tableau {
 public:
  Tableau(std::vector<StdRow> rows, std::vector<double> std_costs,
          const SimplexOptions& options)
      : options_(options), rows_meta_(std::move(rows)),
        std_costs_(std::move(std_costs)) {
    build();
  }

  /// Runs phase 1 + phase 2. Returns the status; on kOptimal the primal
  /// standard-form values and per-row duals can be queried.
  SolveStatus run() {
    // Phase 1: minimize sum of artificials (only needed if any exist).
    if (num_artificial_ > 0) {
      load_phase1_costs();
      const SolveStatus st = iterate(/*phase1=*/true);
      if (st != SolveStatus::kOptimal) return st;
      if (cost_value_ > kFeasibilityTol) return SolveStatus::kInfeasible;
      purge_artificials_from_basis();
    }
    load_phase2_costs();
    return iterate(/*phase1=*/false);
  }

  /// Value of standard-form variable j at the current basis.
  double std_value(int j) const {
    for (int i = 0; i < m_; ++i)
      if (basis_[static_cast<std::size_t>(i)] == j) return rhs(i);
    return 0.0;
  }

  /// All standard-form structural values.
  std::vector<double> std_values(int n_struct) const {
    std::vector<double> x(static_cast<std::size_t>(n_struct), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b < n_struct) x[static_cast<std::size_t>(b)] = rhs(i);
    }
    return x;
  }

  /// Dual value for tableau row i (w.r.t. the normalized row): y_i equals
  /// minus the reduced cost of that row's identity column (slack for <=
  /// rows, artificial otherwise).
  double dual(int i) const {
    const int col = identity_col_[static_cast<std::size_t>(i)];
    return -cost_row_[static_cast<std::size_t>(col)];
  }

  long iterations() const noexcept { return iterations_; }
  double objective() const noexcept { return cost_value_; }

 private:
  double& at(int i, int j) { return tab_[static_cast<std::size_t>(i) * stride_ + static_cast<std::size_t>(j)]; }
  double at(int i, int j) const { return tab_[static_cast<std::size_t>(i) * stride_ + static_cast<std::size_t>(j)]; }
  double rhs(int i) const { return at(i, n_total_); }

  void build() {
    m_ = static_cast<int>(rows_meta_.size());
    n_struct_ = static_cast<int>(std_costs_.size());

    // Count slack/surplus and artificial columns.
    int n_slack = 0;
    num_artificial_ = 0;
    for (const auto& r : rows_meta_) {
      if (r.relation != Relation::kEqual) ++n_slack;
      if (r.relation != Relation::kLessEqual) ++num_artificial_;
    }
    n_total_ = n_struct_ + n_slack + num_artificial_;
    stride_ = static_cast<std::size_t>(n_total_) + 1;
    tab_.assign(static_cast<std::size_t>(m_) * stride_, 0.0);
    cost_row_.assign(stride_, 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    identity_col_.assign(static_cast<std::size_t>(m_), -1);
    is_artificial_.assign(static_cast<std::size_t>(n_total_), false);

    int next_slack = n_struct_;
    int next_art = n_struct_ + n_slack;
    first_artificial_ = next_art;
    for (int i = 0; i < m_; ++i) {
      const StdRow& r = rows_meta_[static_cast<std::size_t>(i)];
      for (int j = 0; j < n_struct_; ++j) at(i, j) = r.coefs[static_cast<std::size_t>(j)];
      at(i, n_total_) = r.rhs;
      switch (r.relation) {
        case Relation::kLessEqual:
          at(i, next_slack) = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_slack;
          identity_col_[static_cast<std::size_t>(i)] = next_slack;
          ++next_slack;
          break;
        case Relation::kGreaterEqual:
          at(i, next_slack) = -1.0;
          ++next_slack;
          at(i, next_art) = 1.0;
          is_artificial_[static_cast<std::size_t>(next_art)] = true;
          basis_[static_cast<std::size_t>(i)] = next_art;
          identity_col_[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
        case Relation::kEqual:
          at(i, next_art) = 1.0;
          is_artificial_[static_cast<std::size_t>(next_art)] = true;
          basis_[static_cast<std::size_t>(i)] = next_art;
          identity_col_[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
      }
    }
  }

  void load_phase1_costs() {
    std::fill(cost_row_.begin(), cost_row_.end(), 0.0);
    cost_value_ = 0.0;
    // c_j = 1 for artificials; express over the starting basis by
    // subtracting every row whose basic variable is artificial.
    for (int j = first_artificial_; j < n_total_; ++j)
      cost_row_[static_cast<std::size_t>(j)] = 1.0;
    for (int i = 0; i < m_; ++i) {
      if (!is_artificial_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])]) continue;
      for (int j = 0; j <= n_total_; ++j)
        cost_row_[static_cast<std::size_t>(j)] -= at(i, j);
    }
    cost_value_ = -cost_row_[static_cast<std::size_t>(n_total_)];
    cost_row_[static_cast<std::size_t>(n_total_)] = 0.0;
  }

  void load_phase2_costs() {
    std::fill(cost_row_.begin(), cost_row_.end(), 0.0);
    for (int j = 0; j < n_struct_; ++j)
      cost_row_[static_cast<std::size_t>(j)] = std_costs_[static_cast<std::size_t>(j)];
    // Express over the current basis: rc = c - c_B * B^-1 A.
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const double cb = (b < n_struct_) ? std_costs_[static_cast<std::size_t>(b)] : 0.0;
      if (cb == 0.0) continue;
      for (int j = 0; j <= n_total_; ++j)
        cost_row_[static_cast<std::size_t>(j)] -= cb * at(i, j);
    }
    cost_value_ = -cost_row_[static_cast<std::size_t>(n_total_)];
    cost_row_[static_cast<std::size_t>(n_total_)] = 0.0;
  }

  /// After a feasible phase 1, pivot basic artificials (at value 0) out of
  /// the basis where possible; rows with no eligible pivot are redundant and
  /// keep a zero-valued artificial that can never re-enter.
  void purge_artificials_from_basis() {
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (!is_artificial_[static_cast<std::size_t>(b)]) continue;
      int entering = -1;
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(at(i, j)) > kPivotTol) {
          entering = j;
          break;
        }
      }
      if (entering >= 0) pivot(i, entering);
    }
  }

  /// One simplex phase. Dantzig rule with a Bland fallback when stalling.
  SolveStatus iterate(bool phase1) {
    long since_improvement = 0;
    double best_seen = cost_value_;
    bool bland = false;
    for (;;) {
      if (iterations_ >= options_.max_iterations)
        return SolveStatus::kIterationLimit;

      const int entering = choose_entering(phase1, bland);
      if (entering < 0) return SolveStatus::kOptimal;

      const int leaving = choose_leaving(entering);
      if (leaving < 0) return SolveStatus::kUnbounded;

      pivot(leaving, entering);
      ++iterations_;

      if (cost_value_ < best_seen - 1e-12) {
        best_seen = cost_value_;
        since_improvement = 0;
        bland = false;
      } else if (++since_improvement > kStallThreshold) {
        bland = true;
      }
    }
  }

  int choose_entering(bool phase1, bool bland) const {
    int best = -1;
    double best_rc = -kOptimalityTol;
    for (int j = 0; j < n_total_; ++j) {
      if (!phase1 && is_artificial_[static_cast<std::size_t>(j)]) continue;
      const double rc = cost_row_[static_cast<std::size_t>(j)];
      if (rc < -kOptimalityTol) {
        if (bland) return j;  // first (smallest index) negative column
        if (rc < best_rc) {
          best_rc = rc;
          best = j;
        }
      }
    }
    return best;
  }

  /// Ratio test: exact minimum first, then the smallest basis index among
  /// rows within one absolute epsilon of that minimum. The window is
  /// anchored at the true minimum — scanning with a window that re-centers
  /// on every accepted tie lets `best_ratio` drift by ±1e-12 per acceptance
  /// on degenerate problems, making the chosen row depend on row order and
  /// admitting cycling. The anchored rule is pinned by
  /// tests/lp/simplex_test.cpp (degenerate/cycling regressions) and the
  /// arena solver implements the identical rule.
  int choose_leaving(int entering) const {
    double min_ratio = kInfinity;
    for (int i = 0; i < m_; ++i) {
      const double a = at(i, entering);
      if (a <= kPivotTol) continue;
      // Clamp tiny negative rhs (round-off) to zero so the ratio test never
      // produces a negative step.
      const double ratio = std::max(rhs(i), 0.0) / a;
      if (ratio < min_ratio) min_ratio = ratio;
    }
    if (min_ratio == kInfinity) return -1;
    int best = -1;
    for (int i = 0; i < m_; ++i) {
      const double a = at(i, entering);
      if (a <= kPivotTol) continue;
      const double ratio = std::max(rhs(i), 0.0) / a;
      if (ratio <= min_ratio + 1e-12 &&
          (best < 0 || basis_[static_cast<std::size_t>(i)] <
                           basis_[static_cast<std::size_t>(best)]))
        best = i;
    }
    return best;
  }

  void pivot(int leaving_row, int entering_col) {
    const double p = at(leaving_row, entering_col);
    const double inv = 1.0 / p;
    for (int j = 0; j <= n_total_; ++j) at(leaving_row, j) *= inv;
    at(leaving_row, entering_col) = 1.0;  // kill round-off on the pivot

    for (int i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double factor = at(i, entering_col);
      if (factor == 0.0) continue;
      for (int j = 0; j <= n_total_; ++j)
        at(i, j) -= factor * at(leaving_row, j);
      at(i, entering_col) = 0.0;
    }
    const double cfactor = cost_row_[static_cast<std::size_t>(entering_col)];
    if (cfactor != 0.0) {
      for (int j = 0; j <= n_total_; ++j)
        cost_row_[static_cast<std::size_t>(j)] -= cfactor * at(leaving_row, j);
      cost_row_[static_cast<std::size_t>(entering_col)] = 0.0;
      cost_value_ += cfactor * rhs(leaving_row);
    }
    basis_[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  SimplexOptions options_;
  std::vector<StdRow> rows_meta_;
  std::vector<double> std_costs_;

  std::vector<double> tab_;
  std::vector<double> cost_row_;  // reduced costs; [n_total] unused after load
  std::vector<int> basis_;
  std::vector<int> identity_col_;
  std::vector<bool> is_artificial_;
  std::size_t stride_ = 0;
  int m_ = 0;
  int n_struct_ = 0;
  int n_total_ = 0;
  int num_artificial_ = 0;
  int first_artificial_ = 0;
  double cost_value_ = 0.0;
  long iterations_ = 0;
};

}  // namespace

Solution solve_lp(const Problem& problem, const SimplexOptions& options) {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  const bool maximize = problem.sense() == Sense::kMaximize;

  // --- Map original variables to nonnegative standard-form columns. -------
  std::vector<VarMap> maps(static_cast<std::size_t>(n));
  int n_struct = 0;
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    VarMap& mp = maps[static_cast<std::size_t>(j)];
    if (v.lower == kNegInf && v.upper == kInfinity) {
      mp.kind = VarMap::Kind::kSplit;
      mp.primary = n_struct++;
      mp.secondary = n_struct++;
    } else if (v.lower == kNegInf) {
      mp.kind = VarMap::Kind::kMirrored;
      mp.primary = n_struct++;
      mp.offset = v.upper;
    } else {
      mp.kind = VarMap::Kind::kShifted;
      mp.primary = n_struct++;
      mp.offset = v.lower;
    }
  }

  // --- Standard-form objective (always minimize). The constant parts from
  // the variable offsets are not tracked: the reported objective is
  // recomputed from the recovered primal values, which is both simpler and
  // immune to sign conventions.
  std::vector<double> std_costs(static_cast<std::size_t>(n_struct), 0.0);
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    const VarMap& mp = maps[static_cast<std::size_t>(j)];
    const double c = maximize ? -v.objective : v.objective;
    switch (mp.kind) {
      case VarMap::Kind::kShifted:
        std_costs[static_cast<std::size_t>(mp.primary)] += c;
        break;
      case VarMap::Kind::kMirrored:
        std_costs[static_cast<std::size_t>(mp.primary)] -= c;
        break;
      case VarMap::Kind::kSplit:
        std_costs[static_cast<std::size_t>(mp.primary)] += c;
        std_costs[static_cast<std::size_t>(mp.secondary)] -= c;
        break;
    }
  }

  // --- Standard-form rows. --------------------------------------------------
  auto expand_row = [&](const std::vector<Term>& terms, Relation rel,
                        double rhs_value, int orig_row) {
    StdRow row;
    row.coefs.assign(static_cast<std::size_t>(n_struct), 0.0);
    row.relation = rel;
    row.rhs = rhs_value;
    row.orig_row = orig_row;
    for (const Term& t : terms) {
      const VarMap& mp = maps[static_cast<std::size_t>(t.var)];
      switch (mp.kind) {
        case VarMap::Kind::kShifted:
          row.coefs[static_cast<std::size_t>(mp.primary)] += t.coef;
          row.rhs -= t.coef * mp.offset;
          break;
        case VarMap::Kind::kMirrored:
          row.coefs[static_cast<std::size_t>(mp.primary)] -= t.coef;
          row.rhs -= t.coef * mp.offset;
          break;
        case VarMap::Kind::kSplit:
          row.coefs[static_cast<std::size_t>(mp.primary)] += t.coef;
          row.coefs[static_cast<std::size_t>(mp.secondary)] -= t.coef;
          break;
      }
    }
    if (row.rhs < 0.0) {
      for (double& c : row.coefs) c = -c;
      row.rhs = -row.rhs;
      row.sign_flipped = true;
      if (row.relation == Relation::kLessEqual)
        row.relation = Relation::kGreaterEqual;
      else if (row.relation == Relation::kGreaterEqual)
        row.relation = Relation::kLessEqual;
    }
    return row;
  };

  std::vector<StdRow> rows;
  rows.reserve(static_cast<std::size_t>(m) + static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    const Constraint& c = problem.constraint(i);
    rows.push_back(expand_row(c.terms, c.relation, c.rhs, i));
  }
  // Finite upper bounds become explicit rows (for shifted variables); a
  // mirrored variable's finite *lower* bound likewise.
  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    const VarMap& mp = maps[static_cast<std::size_t>(j)];
    if (mp.kind == VarMap::Kind::kShifted && v.upper != kInfinity) {
      // Includes fixed variables (upper == lower): the row pins x' at 0.
      rows.push_back(expand_row({{j, 1.0}}, Relation::kLessEqual, v.upper, -1));
    } else if (mp.kind == VarMap::Kind::kMirrored && v.lower != kNegInf) {
      rows.push_back(
          expand_row({{j, 1.0}}, Relation::kGreaterEqual, v.lower, -1));
    }
  }

  Tableau tableau(rows, std_costs, options);
  const SolveStatus status = tableau.run();

  Solution sol;
  sol.status = status;
  sol.iterations = tableau.iterations();
  if (status != SolveStatus::kOptimal) return sol;

  // --- Recover original-space primal values. --------------------------------
  const std::vector<double> xs = tableau.std_values(n_struct);
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    const VarMap& mp = maps[static_cast<std::size_t>(j)];
    double value = 0.0;
    switch (mp.kind) {
      case VarMap::Kind::kShifted:
        value = mp.offset + xs[static_cast<std::size_t>(mp.primary)];
        break;
      case VarMap::Kind::kMirrored:
        value = mp.offset - xs[static_cast<std::size_t>(mp.primary)];
        break;
      case VarMap::Kind::kSplit:
        value = xs[static_cast<std::size_t>(mp.primary)] -
                xs[static_cast<std::size_t>(mp.secondary)];
        break;
    }
    sol.x[static_cast<std::size_t>(j)] = value;
  }
  sol.objective = problem.objective_value(sol.x);

  // --- Duals for the original rows. -----------------------------------------
  sol.duals.assign(static_cast<std::size_t>(m), 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const int orig = rows[r].orig_row;
    if (orig < 0) continue;
    double y = tableau.dual(static_cast<int>(r));
    if (rows[r].sign_flipped) y = -y;
    if (maximize) y = -y;
    sol.duals[static_cast<std::size_t>(orig)] = y;
  }
  return sol;
}

}  // namespace billcap::lp
