#include "lp/arena_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

namespace billcap::lp {

namespace {

constexpr double kNegInf = -kInfinity;

/// Dual-simplex pivot budget for one warm re-solve. A handful of pivots is
/// the expected case; anything past this bound smells like cycling or a
/// badly stale basis, and the caller falls back to the cold two-phase path.
long dual_pivot_budget(int m) { return std::max<long>(200, 4L * m); }

/// Minimum |pivot| the warm paths will accept. The resident tableau *is*
/// the factorization: one pivot on a 1e-8 element scales a row by 1e8 and
/// silently destroys B^-1 for every later warm re-solve (observed as bogus
/// node bounds on the paper's MILPs). Warm repairs refuse such pivots and
/// report a repair failure so the caller rebuilds cold; the cold two-phase
/// path keeps the legacy pivot_tol rule and bit-for-bit legacy behavior.
constexpr double kStablePivot = 1e-7;

}  // namespace

/// All solver state lives here, in flat capacity-reserved storage. The
/// tableau layout matches the legacy simplex (the test oracle in
/// tests/oracle/simplex.cpp) exactly — columns
/// [structural | slack/surplus | artificial | rhs], rows normalized to
/// rhs >= 0 at build time — so the cold path reproduces the legacy engine's
/// pivot sequence bit for bit, and the columns that started as the identity
/// (identity_col_) read back B^-1 for the warm rhs swaps.
struct ArenaSolver::Impl {
  explicit Impl(const ArenaConfig& cfg) : config(cfg) {}

  ArenaConfig config;
  ArenaStats stat;

  // ---- variable mapping onto the nonnegative standard form --------------
  enum class Kind : unsigned char { kShifted, kMirrored, kSplit };
  struct VarMap {
    Kind kind = Kind::kShifted;
    int primary = -1;
    int secondary = -1;
  };
  std::vector<VarMap> maps;
  int n_orig = 0;
  int n_struct = 0;

  // ---- std-row metadata: how to recompute a row's rhs from bounds -------
  struct RowMeta {
    int orig_row = -1;   ///< >= 0: problem constraint; -1: synthesized bound
    int bound_var = -1;  ///< original variable of a bound row
    bool flipped = false;
    Relation relation = Relation::kLessEqual;  ///< after the build-time flip
  };
  std::vector<RowMeta> rows;

  // ---- the flat tableau arena -------------------------------------------
  std::vector<double> tab;        ///< m_ x stride_
  std::vector<double> cost_row;   ///< reduced costs
  std::vector<double> std_costs;  ///< current min-sense structural costs
  std::vector<int> basis;
  std::vector<int> identity_col;  ///< per row: the column that was e_i at build
  std::vector<char> is_artificial;
  std::size_t stride = 0;
  int m = 0;
  int n_total = 0;
  int first_artificial = 0;
  int num_artificial = 0;
  double cost_value = 0.0;
  long iterations_this_solve = 0;
  long lp_iters = 0;  ///< pivots of the LP currently being solved (both phases)

  /// Tableau holds phase-2 reduced costs over a consistent basis, so a
  /// dual-simplex warm re-solve from it is sound.
  bool resident_valid = false;
  /// Additionally primal-feasible at the root rhs (parked): a follow-up
  /// solve may run the cost pass primal from here.
  bool parked = false;
  /// Every integer variable is kShifted with a finite upper bound, so
  /// branching moves only the rhs and children can warm start.
  bool fast_path_ok = false;
  /// The previous solve's optimal integer assignment, positional over
  /// int_vars. On the next warm root one dual re-solve with the integers
  /// pinned to this pattern seeds the incumbent, so branch-and-bound
  /// starts with a strong upper bound instead of discovering one node by
  /// node — the pattern rarely moves hour over hour.
  std::vector<double> seed_values;
  bool has_seed = false;

  // ---- structural signature of the resident problem ---------------------
  struct VarSig {
    unsigned char kind = 0;
    bool is_integer = false;
    bool has_bound_row = false;
  };
  std::vector<VarSig> sig_vars;
  std::vector<Relation> sig_rel;
  std::vector<std::vector<Term>> sig_terms;

  // ---- per-solve working buffers (reserved once per shape) --------------
  std::vector<double> cur_lo, cur_hi;
  std::vector<double> root_lo, root_hi;
  std::vector<int> int_vars;
  std::vector<double> work_rhs;  ///< b' in the build-time row convention
  std::vector<double> work_xb;
  std::vector<double> work_x;    ///< original-space recovery
  std::vector<double> row_buf;   ///< dense std coefficients of one row
  std::vector<double> snap_buf;  ///< incumbent snapping scratch

  // ---- pooled branch-and-bound nodes ------------------------------------
  struct NodeSlot {
    int var = -1;  ///< branched variable; -1 for the root
    double lo = 0.0, hi = 0.0;
    int parent = -1;
    double parent_bound = kNegInf;
  };
  std::vector<NodeSlot> pool;
  std::vector<int> dfs;  ///< open nodes, indices into pool

  // =======================================================================

  double& at(int i, int j) {
    return tab[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return tab[static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j)];
  }
  double rhs(int i) const { return at(i, n_total); }

  std::size_t tableau_bytes(int rows_needed, std::size_t stride_needed) const {
    return (static_cast<std::size_t>(rows_needed) + 1) * stride_needed *
           sizeof(double);
  }
  std::size_t footprint() const {
    return tab.capacity() * sizeof(double) + cost_row.capacity() * sizeof(double) +
           pool.capacity() * sizeof(NodeSlot);
  }

  static Kind kind_of(const Variable& v) {
    if (v.lower == kNegInf && v.upper == kInfinity) return Kind::kSplit;
    if (v.lower == kNegInf) return Kind::kMirrored;
    return Kind::kShifted;
  }
  static bool has_bound_row(const Variable& v, Kind k) {
    return (k == Kind::kShifted && v.upper != kInfinity) ||
           (k == Kind::kMirrored && v.lower != kNegInf);
  }

  double offset_of(int j) const {
    switch (maps[static_cast<std::size_t>(j)].kind) {
      case Kind::kShifted: return cur_lo[static_cast<std::size_t>(j)];
      case Kind::kMirrored: return cur_hi[static_cast<std::size_t>(j)];
      case Kind::kSplit: return 0.0;
    }
    return 0.0;
  }

  // ---- structure adoption ------------------------------------------------

  /// True when `problem` has the same standard-form structure as the
  /// resident tableau: same variable kinds/bound-row pattern and bitwise
  /// identical constraint coefficients. Bound *values* and every rhs may
  /// differ — those are exactly what the warm start re-loads.
  bool signature_matches(const Problem& problem) const {
    if (static_cast<int>(sig_vars.size()) != problem.num_variables())
      return false;
    if (static_cast<int>(sig_rel.size()) != problem.num_constraints())
      return false;
    for (int j = 0; j < problem.num_variables(); ++j) {
      const Variable& v = problem.variable(j);
      const Kind k = kind_of(v);
      const VarSig& s = sig_vars[static_cast<std::size_t>(j)];
      if (static_cast<unsigned char>(k) != s.kind) return false;
      if (v.is_integer != s.is_integer) return false;
      if (has_bound_row(v, k) != s.has_bound_row) return false;
    }
    for (int i = 0; i < problem.num_constraints(); ++i) {
      const Constraint& c = problem.constraint(i);
      if (c.relation != sig_rel[static_cast<std::size_t>(i)]) return false;
      const auto& terms = sig_terms[static_cast<std::size_t>(i)];
      if (terms.size() != c.terms.size()) return false;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        if (terms[t].var != c.terms[t].var) return false;
        if (terms[t].coef != c.terms[t].coef) return false;
      }
    }
    return true;
  }

  void capture_signature(const Problem& problem) {
    const std::size_t n = static_cast<std::size_t>(problem.num_variables());
    const std::size_t mm = static_cast<std::size_t>(problem.num_constraints());
    sig_vars.assign(n, VarSig{});
    for (int j = 0; j < problem.num_variables(); ++j) {
      const Variable& v = problem.variable(j);
      const Kind k = kind_of(v);
      sig_vars[static_cast<std::size_t>(j)] = VarSig{
          static_cast<unsigned char>(k), v.is_integer, has_bound_row(v, k)};
    }
    sig_rel.resize(mm);
    sig_terms.resize(mm);
    for (int i = 0; i < problem.num_constraints(); ++i) {
      const Constraint& c = problem.constraint(i);
      sig_rel[static_cast<std::size_t>(i)] = c.relation;
      sig_terms[static_cast<std::size_t>(i)] = c.terms;
    }
  }

  void load_bounds(const Problem& problem) {
    const std::size_t n = static_cast<std::size_t>(problem.num_variables());
    n_orig = problem.num_variables();
    root_lo.resize(n);
    root_hi.resize(n);
    int_vars.clear();
    int_vars.reserve(n);
    for (int j = 0; j < problem.num_variables(); ++j) {
      const Variable& v = problem.variable(j);
      root_lo[static_cast<std::size_t>(j)] = v.lower;
      root_hi[static_cast<std::size_t>(j)] = v.upper;
      if (v.is_integer) int_vars.push_back(j);
    }
    cur_lo = root_lo;
    cur_hi = root_hi;
  }

  void build_maps() {
    maps.resize(static_cast<std::size_t>(n_orig));
    n_struct = 0;
    fast_path_ok = true;
    for (int j = 0; j < n_orig; ++j) {
      VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double lo = cur_lo[static_cast<std::size_t>(j)];
      const double hi = cur_hi[static_cast<std::size_t>(j)];
      if (lo == kNegInf && hi == kInfinity) {
        mp.kind = Kind::kSplit;
        mp.primary = n_struct++;
        mp.secondary = n_struct++;
      } else if (lo == kNegInf) {
        mp.kind = Kind::kMirrored;
        mp.primary = n_struct++;
        mp.secondary = -1;
      } else {
        mp.kind = Kind::kShifted;
        mp.primary = n_struct++;
        mp.secondary = -1;
      }
    }
    for (const int j : int_vars) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      if (mp.kind != Kind::kShifted ||
          cur_hi[static_cast<std::size_t>(j)] == kInfinity)
        fast_path_ok = false;
    }
  }

  void build_std_costs(const Problem& problem) {
    const bool maximize = problem.sense() == Sense::kMaximize;
    std_costs.assign(static_cast<std::size_t>(n_struct), 0.0);
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double c = maximize ? -problem.variable(j).objective
                                : problem.variable(j).objective;
      switch (mp.kind) {
        case Kind::kShifted:
          std_costs[static_cast<std::size_t>(mp.primary)] += c;
          break;
        case Kind::kMirrored:
          std_costs[static_cast<std::size_t>(mp.primary)] -= c;
          break;
        case Kind::kSplit:
          std_costs[static_cast<std::size_t>(mp.primary)] += c;
          std_costs[static_cast<std::size_t>(mp.secondary)] -= c;
          break;
      }
    }
  }

  /// Raw (pre-flip) std rhs of row meta `rm` under the current bounds.
  double raw_rhs(const Problem& problem, const RowMeta& rm) const {
    if (rm.orig_row >= 0) {
      const Constraint& c = problem.constraint(rm.orig_row);
      double r = c.rhs;
      for (const Term& t : c.terms) r -= t.coef * offset_of(t.var);
      return r;
    }
    const std::size_t v = static_cast<std::size_t>(rm.bound_var);
    if (maps[v].kind == Kind::kShifted) return cur_hi[v] - cur_lo[v];
    return cur_lo[v] - cur_hi[v];  // mirrored lower-bound row
  }

  /// Recomputes every row's rhs under the current bounds, in the resident
  /// build's sign convention.
  void compute_rhs(const Problem& problem) {
    work_rhs.resize(static_cast<std::size_t>(m));
    for (int k = 0; k < m; ++k) {
      const RowMeta& rm = rows[static_cast<std::size_t>(k)];
      const double r = raw_rhs(problem, rm);
      work_rhs[static_cast<std::size_t>(k)] = rm.flipped ? -r : r;
    }
  }

  // ---- cold build: legacy two-phase from scratch -------------------------

  /// Builds the tableau from `problem` under the current bounds and runs
  /// phase 1 + phase 2. Mirrors the legacy simplex construction exactly
  /// (including the rhs-sign row flips). Returns kIterationLimit-class
  /// statuses as the legacy engine does; kArenaExhausted when a configured
  /// byte cap would be exceeded.
  SolveStatus cold_build(const Problem& problem, const SimplexOptions& lp) {
    lp_iters = 0;
    build_maps();

    // Row metas: original constraints, then bound rows.
    rows.clear();
    rows.reserve(static_cast<std::size_t>(problem.num_constraints() + n_orig));
    for (int i = 0; i < problem.num_constraints(); ++i) {
      RowMeta rm;
      rm.orig_row = i;
      rm.relation = problem.constraint(i).relation;
      rows.push_back(rm);
    }
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      const double hi = cur_hi[static_cast<std::size_t>(j)];
      const double lo = cur_lo[static_cast<std::size_t>(j)];
      if (mp.kind == Kind::kShifted && hi != kInfinity) {
        RowMeta rm;
        rm.bound_var = j;
        rm.relation = Relation::kLessEqual;
        rows.push_back(rm);
      } else if (mp.kind == Kind::kMirrored && lo != kNegInf) {
        RowMeta rm;
        rm.bound_var = j;
        rm.relation = Relation::kGreaterEqual;
        rows.push_back(rm);
      }
    }
    m = static_cast<int>(rows.size());

    // Decide flips and count slack/artificial columns.
    int n_slack = 0;
    num_artificial = 0;
    for (RowMeta& rm : rows) {
      rm.flipped = false;
      rm.relation = rm.orig_row >= 0 ? problem.constraint(rm.orig_row).relation
                                     : rm.relation;
      if (rm.bound_var >= 0)
        rm.relation = maps[static_cast<std::size_t>(rm.bound_var)].kind ==
                              Kind::kShifted
                          ? Relation::kLessEqual
                          : Relation::kGreaterEqual;
      const double r = raw_rhs(problem, rm);
      if (r < 0.0) {
        rm.flipped = true;
        if (rm.relation == Relation::kLessEqual)
          rm.relation = Relation::kGreaterEqual;
        else if (rm.relation == Relation::kGreaterEqual)
          rm.relation = Relation::kLessEqual;
      }
      if (rm.relation != Relation::kEqual) ++n_slack;
      if (rm.relation != Relation::kLessEqual) ++num_artificial;
    }
    n_total = n_struct + n_slack + num_artificial;
    stride = static_cast<std::size_t>(n_total) + 1;
    first_artificial = n_struct + n_slack;

    if (config.max_arena_bytes != 0 &&
        tableau_bytes(m, stride) + pool.capacity() * sizeof(NodeSlot) >
            config.max_arena_bytes) {
      resident_valid = false;
      parked = false;
      return SolveStatus::kArenaExhausted;
    }

    tab.assign(static_cast<std::size_t>(m) * stride, 0.0);
    cost_row.assign(stride, 0.0);
    basis.assign(static_cast<std::size_t>(m), -1);
    identity_col.assign(static_cast<std::size_t>(m), -1);
    is_artificial.assign(static_cast<std::size_t>(n_total), 0);
    row_buf.assign(static_cast<std::size_t>(n_struct), 0.0);
    work_rhs.resize(static_cast<std::size_t>(m));
    work_xb.resize(static_cast<std::size_t>(m));

    int next_slack = n_struct;
    int next_art = first_artificial;
    for (int i = 0; i < m; ++i) {
      const RowMeta& rm = rows[static_cast<std::size_t>(i)];
      // Dense std coefficients of this row.
      std::fill(row_buf.begin(), row_buf.end(), 0.0);
      if (rm.orig_row >= 0) {
        for (const Term& t : problem.constraint(rm.orig_row).terms) {
          const VarMap& mp = maps[static_cast<std::size_t>(t.var)];
          switch (mp.kind) {
            case Kind::kShifted:
              row_buf[static_cast<std::size_t>(mp.primary)] += t.coef;
              break;
            case Kind::kMirrored:
              row_buf[static_cast<std::size_t>(mp.primary)] -= t.coef;
              break;
            case Kind::kSplit:
              row_buf[static_cast<std::size_t>(mp.primary)] += t.coef;
              row_buf[static_cast<std::size_t>(mp.secondary)] -= t.coef;
              break;
          }
        }
      } else {
        const VarMap& mp = maps[static_cast<std::size_t>(rm.bound_var)];
        row_buf[static_cast<std::size_t>(mp.primary)] +=
            mp.kind == Kind::kShifted ? 1.0 : -1.0;
      }
      double r = raw_rhs(problem, rm);
      if (rm.flipped) {
        for (double& c : row_buf) c = -c;
        r = -r;
      }
      for (int j = 0; j < n_struct; ++j)
        at(i, j) = row_buf[static_cast<std::size_t>(j)];
      at(i, n_total) = r;

      switch (rm.relation) {
        case Relation::kLessEqual:
          at(i, next_slack) = 1.0;
          basis[static_cast<std::size_t>(i)] = next_slack;
          identity_col[static_cast<std::size_t>(i)] = next_slack;
          ++next_slack;
          break;
        case Relation::kGreaterEqual:
          at(i, next_slack) = -1.0;
          ++next_slack;
          at(i, next_art) = 1.0;
          is_artificial[static_cast<std::size_t>(next_art)] = 1;
          basis[static_cast<std::size_t>(i)] = next_art;
          identity_col[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
        case Relation::kEqual:
          at(i, next_art) = 1.0;
          is_artificial[static_cast<std::size_t>(next_art)] = 1;
          basis[static_cast<std::size_t>(i)] = next_art;
          identity_col[static_cast<std::size_t>(i)] = next_art;
          ++next_art;
          break;
      }
    }

    build_std_costs(problem);
    if (num_artificial > 0) {
      load_phase1_costs();
      const SolveStatus st = primal_iterate(/*phase1=*/true, lp);
      if (st != SolveStatus::kOptimal) {
        resident_valid = false;
        return st;
      }
      if (cost_value > lp.feasibility_tol) {
        resident_valid = false;
        return SolveStatus::kInfeasible;
      }
      purge_artificials(lp);
    }
    load_phase2_costs();
    const SolveStatus st = primal_iterate(/*phase1=*/false, lp);
    resident_valid = (st == SolveStatus::kOptimal);
    return st;
  }

  void load_phase1_costs() {
    std::fill(cost_row.begin(), cost_row.end(), 0.0);
    for (int j = first_artificial; j < n_total; ++j)
      cost_row[static_cast<std::size_t>(j)] = 1.0;
    for (int i = 0; i < m; ++i) {
      if (!is_artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
        continue;
      for (int j = 0; j <= n_total; ++j)
        cost_row[static_cast<std::size_t>(j)] -= at(i, j);
    }
    cost_value = -cost_row[static_cast<std::size_t>(n_total)];
    cost_row[static_cast<std::size_t>(n_total)] = 0.0;
  }

  void load_phase2_costs() {
    std::fill(cost_row.begin(), cost_row.end(), 0.0);
    for (int j = 0; j < n_struct; ++j)
      cost_row[static_cast<std::size_t>(j)] = std_costs[static_cast<std::size_t>(j)];
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      const double cb = (b < n_struct) ? std_costs[static_cast<std::size_t>(b)] : 0.0;
      if (cb == 0.0) continue;
      for (int j = 0; j <= n_total; ++j)
        cost_row[static_cast<std::size_t>(j)] -= cb * at(i, j);
    }
    cost_value = -cost_row[static_cast<std::size_t>(n_total)];
    cost_row[static_cast<std::size_t>(n_total)] = 0.0;
  }

  void purge_artificials(const SimplexOptions& lp) {
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      if (!is_artificial[static_cast<std::size_t>(b)]) continue;
      int entering = -1;
      for (int j = 0; j < first_artificial; ++j) {
        if (std::abs(at(i, j)) > lp.pivot_tol) {
          entering = j;
          break;
        }
      }
      if (entering >= 0) pivot(i, entering);
    }
  }

  // ---- primal simplex (legacy rules, drift-free ratio tie-break) --------

  /// `stable_pivot` > 0 makes the iteration refuse pivot elements below
  /// that magnitude (returning kIterationLimit, i.e. "repair failed, go
  /// cold"). Warm polishing passes set it; the cold path leaves it 0 to
  /// match the legacy engine's pivot sequence exactly.
  SolveStatus primal_iterate(bool phase1, const SimplexOptions& lp,
                             double stable_pivot = 0.0) {
    long since_improvement = 0;
    double best_seen = cost_value;
    bool bland = false;
    for (;;) {
      if (lp_iters >= lp.max_iterations) return SolveStatus::kIterationLimit;

      const int entering = choose_entering(phase1, bland, lp);
      if (entering < 0) return SolveStatus::kOptimal;

      const int leaving = choose_leaving(entering, lp);
      if (leaving < 0) return SolveStatus::kUnbounded;

      if (stable_pivot > 0.0 && at(leaving, entering) < stable_pivot)
        return SolveStatus::kIterationLimit;
      pivot(leaving, entering);
      ++lp_iters;
      ++iterations_this_solve;
      ++stat.primal_iterations;

      if (cost_value < best_seen - 1e-12) {
        best_seen = cost_value;
        since_improvement = 0;
        bland = false;
      } else if (++since_improvement > lp.stall_threshold) {
        bland = true;
      }
    }
  }

  int choose_entering(bool phase1, bool bland, const SimplexOptions& lp) const {
    int best = -1;
    double best_rc = -lp.optimality_tol;
    for (int j = 0; j < n_total; ++j) {
      if (!phase1 && is_artificial[static_cast<std::size_t>(j)]) continue;
      const double rc = cost_row[static_cast<std::size_t>(j)];
      if (rc < -lp.optimality_tol) {
        if (bland) return j;
        if (rc < best_rc) {
          best_rc = rc;
          best = j;
        }
      }
    }
    return best;
  }

  /// Exact-minimum ratio test with a smallest-basis-index tie-break inside
  /// one absolute epsilon of the true minimum. Anchoring the window at the
  /// exact minimum (instead of letting it drift with each accepted tie)
  /// keeps degenerate pivots deterministic and cycling-resistant; the same
  /// rule is pinned in the legacy simplex by tests/lp/simplex_test.cpp.
  int choose_leaving(int entering, const SimplexOptions& lp) const {
    double min_ratio = kInfinity;
    for (int i = 0; i < m; ++i) {
      const double a = at(i, entering);
      if (a <= lp.pivot_tol) continue;
      const double ratio = std::max(rhs(i), 0.0) / a;
      if (ratio < min_ratio) min_ratio = ratio;
    }
    if (min_ratio == kInfinity) return -1;
    int best = -1;
    for (int i = 0; i < m; ++i) {
      const double a = at(i, entering);
      if (a <= lp.pivot_tol) continue;
      const double ratio = std::max(rhs(i), 0.0) / a;
      if (ratio <= min_ratio + 1e-12 &&
          (best < 0 || basis[static_cast<std::size_t>(i)] <
                           basis[static_cast<std::size_t>(best)]))
        best = i;
    }
    return best;
  }

  void pivot(int leaving_row, int entering_col) {
    const double p = at(leaving_row, entering_col);
    const double inv = 1.0 / p;
    for (int j = 0; j <= n_total; ++j) at(leaving_row, j) *= inv;
    at(leaving_row, entering_col) = 1.0;

    for (int i = 0; i < m; ++i) {
      if (i == leaving_row) continue;
      const double factor = at(i, entering_col);
      if (factor == 0.0) continue;
      for (int j = 0; j <= n_total; ++j)
        at(i, j) -= factor * at(leaving_row, j);
      at(i, entering_col) = 0.0;
    }
    const double cfactor = cost_row[static_cast<std::size_t>(entering_col)];
    if (cfactor != 0.0) {
      for (int j = 0; j <= n_total; ++j)
        cost_row[static_cast<std::size_t>(j)] -= cfactor * at(leaving_row, j);
      cost_row[static_cast<std::size_t>(entering_col)] = 0.0;
      cost_value += cfactor * rhs(leaving_row);
    }
    basis[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  // ---- dual simplex: repair primal feasibility after an rhs swap --------

  /// Requires a dual-feasible resident tableau (phase-2 reduced costs
  /// >= -tol, which bound branching and rhs swaps preserve). Terminates
  /// kOptimal (primal feasible again), kInfeasible (dual unbounded: no
  /// feasible point for this rhs), or kIterationLimit (budget blown —
  /// caller falls back cold).
  SolveStatus dual_iterate(const SimplexOptions& lp) {
    const long budget = dual_pivot_budget(m);
    long local = 0;
    for (;;) {
      int r = -1;
      double most = -lp.feasibility_tol;
      for (int i = 0; i < m; ++i) {
        const double v = rhs(i);
        if (v < most ||
            (v == most && r >= 0 &&
             basis[static_cast<std::size_t>(i)] <
                 basis[static_cast<std::size_t>(r)])) {
          most = v;
          r = i;
        }
      }
      if (r < 0) return SolveStatus::kOptimal;
      if (++local > budget) return SolveStatus::kIterationLimit;

      // Entering column: exact minimum of rc_j / -a_rj over eligible
      // columns, smallest index inside the epsilon window (same anchored
      // tie-break as the primal ratio test). Only numerically solid pivots
      // (|a| >= kStablePivot) are eligible; kInfeasible is certified only
      // when the row has no negative entry at all.
      double min_ratio = kInfinity;
      bool any_negative = false;
      for (int j = 0; j < n_total; ++j) {
        if (is_artificial[static_cast<std::size_t>(j)]) continue;
        const double a = at(r, j);
        if (a >= -lp.pivot_tol) continue;
        any_negative = true;
        if (a >= -kStablePivot) continue;
        const double ratio =
            std::max(cost_row[static_cast<std::size_t>(j)], 0.0) / (-a);
        if (ratio < min_ratio) min_ratio = ratio;
      }
      if (min_ratio == kInfinity) {
        // Negative entries exist but none is safe to pivot on: the warm
        // repair cannot proceed reliably -- rebuild cold instead.
        return any_negative ? SolveStatus::kIterationLimit
                            : SolveStatus::kInfeasible;
      }
      int e = -1;
      for (int j = 0; j < n_total; ++j) {
        if (is_artificial[static_cast<std::size_t>(j)]) continue;
        const double a = at(r, j);
        if (a >= -kStablePivot) continue;
        const double ratio =
            std::max(cost_row[static_cast<std::size_t>(j)], 0.0) / (-a);
        if (ratio <= min_ratio + 1e-12) {
          e = j;
          break;  // smallest index in the window
        }
      }
      if (e < 0) return SolveStatus::kIterationLimit;
      pivot(r, e);
      ++iterations_this_solve;
      ++stat.dual_iterations;
    }
  }

  /// Swaps a freshly computed rhs (work_rhs) into the resident tableau via
  /// the B^-1 columns and recomputes the objective value. O(m^2).
  void swap_rhs() {
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int k = 0; k < m; ++k)
        s += at(i, identity_col[static_cast<std::size_t>(k)]) *
             work_rhs[static_cast<std::size_t>(k)];
      work_xb[static_cast<std::size_t>(i)] = s;
    }
    double obj = 0.0;
    for (int i = 0; i < m; ++i) {
      at(i, n_total) = work_xb[static_cast<std::size_t>(i)];
      const int b = basis[static_cast<std::size_t>(i)];
      if (b < n_struct)
        obj += std_costs[static_cast<std::size_t>(b)] *
               work_xb[static_cast<std::size_t>(i)];
    }
    cost_value = obj;
  }

  /// Warm re-solve of the current node's LP: recompute rhs under the
  /// current bounds, swap it in, repair with dual simplex, polish primal.
  SolveStatus warm_eval(const Problem& problem, const SimplexOptions& lp) {
    lp_iters = 0;
    compute_rhs(problem);
    swap_rhs();
    SolveStatus st = dual_iterate(lp);
    if (st != SolveStatus::kOptimal) return st;
    st = primal_iterate(/*phase1=*/false, lp, kStablePivot);
    if (st != SolveStatus::kOptimal) return st;
    // A basic artificial that phase 1 parked at zero (redundant row) may go
    // positive under the new rhs; the "solution" then violates its original
    // constraint and its objective is not a valid node bound. The dual
    // simplex cannot fix this (artificials never re-enter), so surface it
    // as a repair failure and let the caller rebuild cold.
    for (int i = 0; i < m; ++i) {
      if (is_artificial[static_cast<std::size_t>(
              basis[static_cast<std::size_t>(i)])] &&
          rhs(i) > lp.feasibility_tol)
        return SolveStatus::kIterationLimit;
    }
    return SolveStatus::kOptimal;
  }

  // ---- solution recovery -------------------------------------------------

  void recover_x(Solution& sol) {
    work_x.assign(static_cast<std::size_t>(n_orig), 0.0);
    // Structural std values from the basis.
    std::vector<double>& xs = work_xb;  // reuse: xs[col] not needed, scan rows
    (void)xs;
    snap_buf.assign(static_cast<std::size_t>(n_struct), 0.0);
    for (int i = 0; i < m; ++i) {
      const int b = basis[static_cast<std::size_t>(i)];
      if (b < n_struct) snap_buf[static_cast<std::size_t>(b)] = rhs(i);
    }
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& mp = maps[static_cast<std::size_t>(j)];
      double value = 0.0;
      switch (mp.kind) {
        case Kind::kShifted:
          value = cur_lo[static_cast<std::size_t>(j)] +
                  snap_buf[static_cast<std::size_t>(mp.primary)];
          break;
        case Kind::kMirrored:
          value = cur_hi[static_cast<std::size_t>(j)] -
                  snap_buf[static_cast<std::size_t>(mp.primary)];
          break;
        case Kind::kSplit:
          value = snap_buf[static_cast<std::size_t>(mp.primary)] -
                  snap_buf[static_cast<std::size_t>(mp.secondary)];
          break;
      }
      work_x[static_cast<std::size_t>(j)] = value;
    }
    sol.x = work_x;
  }

  // ---- branch-and-bound ---------------------------------------------------

  /// Applies node `idx`'s bound chain onto cur_lo/cur_hi (integer variables
  /// only — continuous bounds never change during the search). Returns
  /// false when some interval is empty (the node is pruned).
  bool apply_node_bounds(int idx) {
    for (const int j : int_vars) {
      cur_lo[static_cast<std::size_t>(j)] = root_lo[static_cast<std::size_t>(j)];
      cur_hi[static_cast<std::size_t>(j)] = root_hi[static_cast<std::size_t>(j)];
    }
    for (int i = idx; i >= 0; i = pool[static_cast<std::size_t>(i)].parent) {
      const NodeSlot& s = pool[static_cast<std::size_t>(i)];
      if (s.var < 0) continue;
      const std::size_t v = static_cast<std::size_t>(s.var);
      cur_lo[v] = std::max(cur_lo[v], s.lo);
      cur_hi[v] = std::min(cur_hi[v], s.hi);
    }
    for (const int j : int_vars) {
      const std::size_t v = static_cast<std::size_t>(j);
      if (cur_lo[v] > cur_hi[v] + 1e-9) return false;
      cur_hi[v] = std::max(cur_lo[v], cur_hi[v]);
    }
    return true;
  }

  int pick_branch_variable(const Problem& problem, std::span<const double> x,
                           double tol) const {
    int best = -1;
    double best_frac_dist = tol;
    for (int j = 0; j < problem.num_variables(); ++j) {
      if (!problem.variable(j).is_integer) continue;
      const double value = x[static_cast<std::size_t>(j)];
      const double frac = value - std::floor(value);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_frac_dist) {
        best_frac_dist = dist;
        best = j;
      }
    }
    return best;
  }

  /// Grows the node pool (between node expansions, never inside the
  /// simplex loops). Returns false when a configured byte cap forbids it.
  bool ensure_pool_capacity(std::size_t needed) {
    if (needed <= pool.capacity()) return true;
    std::size_t next = std::max<std::size_t>(1024, pool.capacity() * 2);
    while (next < needed) next *= 2;
    if (config.max_arena_bytes != 0 &&
        tableau_bytes(m, stride) + next * sizeof(NodeSlot) >
            config.max_arena_bytes)
      return false;
    pool.reserve(next);
    dfs.reserve(next);
    return true;
  }

  Solution solve(const Problem& problem, const MilpOptions& options) {
    const bool maximize = problem.sense() == Sense::kMaximize;
    const auto to_min = [maximize](double obj) { return maximize ? -obj : obj; };
    iterations_this_solve = 0;

    Solution best;
    best.status = SolveStatus::kInfeasible;
    double incumbent = kInfinity;
    long nodes = 0;
    bool hit_node_limit = false;
    bool hit_time_limit = false;
    bool exhausted = false;
    double root_bound = kNegInf;
    bool root_known = false;

    const bool deadline_armed = options.time_limit_ms > 0.0;
    // The kTimeLimit deadline is real time by definition; deadline-armed
    // solves are documented non-reproducible.
    // billcap-lint: allow(wall-clock): solver deadline timing, never output
    const auto deadline_start = std::chrono::steady_clock::now();
    const auto past_deadline = [&]() {
      if (!deadline_armed) return false;
      // billcap-lint: allow(wall-clock): same sanctioned deadline site
      const auto now = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(now - deadline_start)
                 .count() >= options.time_limit_ms;
    };

    // ---- root: adopt the previous solve's basis, or build cold ----------
    bool warm_root = false;
    SolveStatus warm_root_status = SolveStatus::kInfeasible;
    Solution seeded;  // incumbent candidate from the previous optimum
    bool have_seeded = false;
    const bool warm_candidate =
        config.warm_across_solves && resident_valid && parked;
    if (warm_candidate && signature_matches(problem)) {
      load_bounds(problem);
      // maps/int_vars pattern matches the resident build by signature.
      build_maps();
      build_std_costs(problem);
      // Cost pass: new objective over the parked (primal-feasible) basis.
      lp_iters = 0;
      load_phase2_costs();
      SolveStatus st =
          primal_iterate(/*phase1=*/false, options.lp, kStablePivot);
      if (st == SolveStatus::kOptimal && has_seed && !int_vars.empty() &&
          seed_values.size() == int_vars.size()) {
        // Incumbent seeding: pin the integers to the previous optimum's
        // pattern and dual re-solve for the best continuous completion.
        // The result (re-verified against the root problem) becomes the
        // starting incumbent once the root LP below confirms optimality.
        bool pattern_fits = true;
        for (std::size_t k = 0; k < int_vars.size() && pattern_fits; ++k) {
          const std::size_t v = static_cast<std::size_t>(int_vars[k]);
          pattern_fits = seed_values[k] >= root_lo[v] - 1e-9 &&
                         seed_values[k] <= root_hi[v] + 1e-9;
        }
        if (pattern_fits) {
          for (std::size_t k = 0; k < int_vars.size(); ++k) {
            const std::size_t v = static_cast<std::size_t>(int_vars[k]);
            cur_lo[v] = seed_values[k];
            cur_hi[v] = seed_values[k];
          }
          if (warm_eval(problem, options.lp) == SolveStatus::kOptimal) {
            seeded.status = SolveStatus::kOptimal;
            recover_x(seeded);
            for (const int j : int_vars)
              seeded.x[static_cast<std::size_t>(j)] =
                  std::round(seeded.x[static_cast<std::size_t>(j)]);
            if (problem.is_feasible(seeded.x, 1e-6)) {
              seeded.objective = problem.objective_value(seeded.x);
              have_seeded = true;
            }
          }
          cur_lo = root_lo;
          cur_hi = root_hi;
        }
      }
      if (st == SolveStatus::kOptimal) {
        // Rhs pass: swap in the new root rhs, repair dual.
        st = warm_eval(problem, options.lp);
        if (st == SolveStatus::kOptimal || st == SolveStatus::kInfeasible) {
          warm_root = true;
          warm_root_status = st;
          ++stat.warm_solves;
        }
      }
      // kUnbounded under the *old* rhs does not settle the status for the
      // new rhs (which may be infeasible): decide cold.
      if (!warm_root) {
        ++stat.warm_fallbacks;
        resident_valid = false;
        parked = false;
      }
    } else if (warm_candidate) {
      // Same solver, different structure: fall back cold by design.
      ++stat.warm_fallbacks;
      resident_valid = false;
      parked = false;
    }
    if (!warm_root) {
      load_bounds(problem);
      resident_valid = false;
      parked = false;
    }
    if (warm_root && warm_root_status == SolveStatus::kOptimal &&
        have_seeded) {
      // The seeded solution is feasible and the root confirmed solvable:
      // start the search holding it, so every node whose relaxation bound
      // cannot beat it is fathomed immediately.
      incumbent = to_min(seeded.objective);
      best = seeded;
    }

    // ---- depth-first search over pooled nodes ---------------------------
    pool.clear();
    dfs.clear();
    if (!ensure_pool_capacity(4)) {
      best.status = SolveStatus::kArenaExhausted;
      return best;
    }
    pool.push_back(NodeSlot{});  // root
    dfs.push_back(0);

    bool first_node = true;
    while (!dfs.empty()) {
      if (nodes >= options.max_nodes) {
        hit_node_limit = true;
        break;
      }
      if (past_deadline()) {
        hit_time_limit = true;
        break;
      }
      const int idx = dfs.back();
      dfs.pop_back();
      const NodeSlot node = pool[static_cast<std::size_t>(idx)];

      if (node.parent_bound >= incumbent - options.absolute_gap) continue;
      if (!apply_node_bounds(idx)) continue;

      ++nodes;
      ++stat.nodes_explored;

      // ---- node LP -------------------------------------------------------
      SolveStatus st;
      bool solved_warm = false;
      const bool root_already_solved = first_node && warm_root;
      first_node = false;
      if (root_already_solved) {
        st = warm_root_status;
        solved_warm = true;
      } else if (resident_valid && fast_path_ok) {
        st = warm_eval(problem, options.lp);
        if (st == SolveStatus::kOptimal || st == SolveStatus::kInfeasible) {
          solved_warm = true;
          ++stat.node_warm_solves;
        }
      } else {
        st = SolveStatus::kIterationLimit;  // force the cold path below
      }
      if (!solved_warm) {
        st = cold_build(problem, options.lp);
        if (st == SolveStatus::kArenaExhausted) {
          exhausted = true;
          break;
        }
        if (idx == 0)
          ++stat.cold_solves;
        else
          ++stat.node_cold_solves;
      }

      if (st == SolveStatus::kUnbounded) {
        Solution sol;
        sol.status = SolveStatus::kUnbounded;
        sol.nodes = nodes;
        sol.iterations = iterations_this_solve;
        resident_valid = false;
        parked = false;
        return sol;
      }
      if (st != SolveStatus::kOptimal) continue;  // infeasible/limit node

      Solution relax;
      relax.status = SolveStatus::kOptimal;
      recover_x(relax);
      relax.objective = problem.objective_value(relax.x);

      const double bound = to_min(relax.objective);
      if (!root_known) {
        root_bound = bound;
        root_known = true;
      }
      if (bound >= incumbent - options.absolute_gap &&
          bound >= incumbent - options.relative_gap * std::abs(incumbent))
        continue;

      int branch_var =
          pick_branch_variable(problem, relax.x, options.integrality_tol);
      if (branch_var < 0) {
        // Integral: candidate incumbent. A warm-solved node's solution is
        // re-checked against the root problem; numerical drift in the
        // resident tableau falls back to a cold re-solve of this node.
        snap_buf = relax.x;
        for (const int j : int_vars)
          snap_buf[static_cast<std::size_t>(j)] =
              std::round(snap_buf[static_cast<std::size_t>(j)]);
        if (solved_warm && !problem.is_feasible(snap_buf, 1e-6)) {
          st = cold_build(problem, options.lp);
          ++stat.node_cold_solves;
          if (st == SolveStatus::kArenaExhausted) {
            exhausted = true;
            break;
          }
          if (st != SolveStatus::kOptimal) continue;
          recover_x(relax);
          relax.objective = problem.objective_value(relax.x);
          branch_var =
              pick_branch_variable(problem, relax.x, options.integrality_tol);
          if (branch_var >= 0) {
            // The cold re-solve landed on a fractional vertex: branch on it.
          } else {
            snap_buf = relax.x;
            for (const int j : int_vars)
              snap_buf[static_cast<std::size_t>(j)] =
                  std::round(snap_buf[static_cast<std::size_t>(j)]);
          }
        }
        if (branch_var < 0) {
          const double node_bound = to_min(relax.objective);
          if (node_bound < incumbent) {
            incumbent = node_bound;
            best = std::move(relax);
            best.duals.clear();
            best.x = snap_buf;
            best.objective = problem.objective_value(best.x);
          }
          continue;
        }
      }

      // Branch: floor side and ceil side, closer-to-fractional first.
      const double value = relax.x[static_cast<std::size_t>(branch_var)];
      const double floor_value = std::floor(value);
      const double cur_l = cur_lo[static_cast<std::size_t>(branch_var)];
      const double cur_h = cur_hi[static_cast<std::size_t>(branch_var)];

      if (!ensure_pool_capacity(pool.size() + 2)) {
        exhausted = true;
        break;
      }
      NodeSlot down;
      down.var = branch_var;
      down.lo = cur_l;
      down.hi = std::min(cur_h, floor_value);
      down.parent = idx;
      down.parent_bound = bound;
      NodeSlot up;
      up.var = branch_var;
      up.lo = std::max(cur_l, floor_value + 1.0);
      up.hi = cur_h;
      up.parent = idx;
      up.parent_bound = bound;

      const double frac = value - floor_value;
      if (frac <= 0.5) {
        pool.push_back(up);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
        pool.push_back(down);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
      } else {
        pool.push_back(down);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
        pool.push_back(up);
        dfs.push_back(static_cast<int>(pool.size()) - 1);
      }
    }

    best.nodes = nodes;
    best.iterations = iterations_this_solve;
    const bool cut_short = hit_node_limit || hit_time_limit || exhausted;
    if (best.status == SolveStatus::kOptimal) {
      double open_bound = incumbent;
      if (cut_short) {
        for (const int i : dfs)
          open_bound =
              std::min(open_bound, pool[static_cast<std::size_t>(i)].parent_bound);
        open_bound = std::max(open_bound, root_known ? root_bound : kNegInf);
      }
      best.best_bound = maximize ? -open_bound : open_bound;
      if (exhausted) best.status = SolveStatus::kArenaExhausted;
      else if (hit_time_limit) best.status = SolveStatus::kTimeLimit;
      else if (hit_node_limit) best.status = SolveStatus::kNodeLimit;
    } else if (cut_short) {
      best.status = exhausted          ? SolveStatus::kArenaExhausted
                    : hit_time_limit   ? SolveStatus::kTimeLimit
                                       : SolveStatus::kNodeLimit;
    }

    // ---- duals: a pure LP's optimal tableau is still resident -----------
    // The legacy readout: y_r is minus the reduced cost of row r's identity
    // column, negated for a row flipped at build time and again for a
    // maximize objective. The cold path shares the legacy layout and pivot
    // sequence, so these match the legacy engine's duals bit for bit. MILPs
    // report none (a node's duals say nothing about the integer optimum).
    if (int_vars.empty() && best.status == SolveStatus::kOptimal) {
      best.duals.assign(static_cast<std::size_t>(problem.num_constraints()),
                        0.0);
      for (int r = 0; r < m; ++r) {
        const RowMeta& rm = rows[static_cast<std::size_t>(r)];
        if (rm.orig_row < 0) continue;
        double y = -cost_row[static_cast<std::size_t>(
            identity_col[static_cast<std::size_t>(r)])];
        if (rm.flipped) y = -y;
        if (maximize) y = -y;
        best.duals[static_cast<std::size_t>(rm.orig_row)] = y;
      }
    }

    // ---- remember the winning integer pattern for the next seed ---------
    if (config.warm_across_solves &&
        best.status == SolveStatus::kOptimal) {
      seed_values.resize(int_vars.size());
      for (std::size_t k = 0; k < int_vars.size(); ++k)
        seed_values[k] = best.x[static_cast<std::size_t>(int_vars[k])];
      has_seed = true;
    }

    // ---- park the tableau at the root optimum for the next solve --------
    if (config.warm_across_solves && resident_valid && fast_path_ok &&
        !exhausted) {
      cur_lo = root_lo;
      cur_hi = root_hi;
      const SolveStatus st = warm_eval(problem, options.lp);
      if (st == SolveStatus::kOptimal) {
        parked = true;
        capture_signature(problem);
      } else {
        resident_valid = false;
        parked = false;
      }
    } else {
      resident_valid = false;
      parked = false;
    }
    return best;
  }

};

ArenaSolver::ArenaSolver(ArenaConfig config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {}

ArenaSolver::~ArenaSolver() = default;
ArenaSolver::ArenaSolver(ArenaSolver&&) noexcept = default;
ArenaSolver& ArenaSolver::operator=(ArenaSolver&&) noexcept = default;

Solution ArenaSolver::solve(const Problem& problem, const MilpOptions& options) {
  // A per-call cap (MilpOptions::max_arena_bytes) tightens the lifetime cap
  // for this solve only; the lifetime value is restored before returning so
  // one squeezed chunk solve cannot shrink the arena for later hours.
  const std::size_t lifetime_cap = config_.max_arena_bytes;
  std::size_t effective = lifetime_cap;
  if (options.max_arena_bytes != 0 &&
      (effective == 0 || options.max_arena_bytes < effective)) {
    effective = options.max_arena_bytes;
  }
  // An arena already holding more than the squeezed cap is exhausted by
  // definition — a warm pool would otherwise sail past the growth checks.
  if (effective != 0 && impl_->footprint() > effective) {
    Solution sol;
    sol.status = SolveStatus::kArenaExhausted;
    return sol;
  }
  impl_->config.max_arena_bytes = effective;
  Solution sol = impl_->solve(problem, options);
  impl_->config.max_arena_bytes = lifetime_cap;
  return sol;
}

void ArenaSolver::invalidate() noexcept {
  impl_->resident_valid = false;
  impl_->parked = false;
  impl_->has_seed = false;
}

const ArenaStats& ArenaSolver::stats() const noexcept { return impl_->stat; }

std::size_t ArenaSolver::arena_bytes() const noexcept {
  return impl_->footprint();
}

}  // namespace billcap::lp
