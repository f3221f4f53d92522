#pragma once

#include <cstddef>

#include "lp/problem.hpp"

namespace billcap::lp {

/// Tuning knobs for the simplex iterations of one LP solve. Defaults are
/// appropriate for the dense, small-to-medium problems this repository
/// generates (tens to a few hundred rows).
struct SimplexOptions {
  long max_iterations = 50'000;   ///< pivot limit before kIterationLimit
  double pivot_tol = 1e-9;        ///< minimum |pivot| accepted
  double feasibility_tol = 1e-7;  ///< phase-1 residual treated as zero
  double optimality_tol = 1e-9;   ///< reduced cost treated as nonnegative
  /// Pivots without objective improvement before switching to Bland's rule
  /// (guaranteed anti-cycling).
  long stall_threshold = 200;
};

/// Tuning knobs for branch-and-bound. Defaults comfortably cover the paper's
/// problems (3 data centers x 5 price levels => ~20 binaries).
struct MilpOptions {
  long max_nodes = 200'000;        ///< node limit before kNodeLimit
  double integrality_tol = 1e-6;   ///< |x - round(x)| treated as integral
  double relative_gap = 1e-9;      ///< stop when bound and incumbent close
  double absolute_gap = 1e-9;
  /// Wall-clock deadline for the whole branch-and-bound search in
  /// milliseconds; <= 0 disables the deadline. On expiry the best incumbent
  /// found so far is returned with SolveStatus::kTimeLimit (an hourly
  /// control loop must never block on one stubborn solve).
  double time_limit_ms = 0.0;
  /// Per-solve arena byte cap; 0 leaves the solver's lifetime cap
  /// (ArenaConfig::max_arena_bytes) in charge. A nonzero value tightens the
  /// cap for this call only — the fleet layer uses it to squeeze one chunk's
  /// solve without reconfiguring the warm arena it shares across hours.
  /// Exhaustion surfaces as SolveStatus::kArenaExhausted, never a throw.
  std::size_t max_arena_bytes = 0;
  SimplexOptions lp;               ///< options for each relaxation solve
};

/// Solves a mixed-integer linear program by LP-based branch-and-bound:
/// depth-first on a best-bound-ordered stack, branching on the most
/// fractional integer variable, pruning nodes whose relaxation bound cannot
/// beat the incumbent.
///
/// This plays the role lp_solve plays in the paper (Section IV-C). On
/// kOptimal the solution is integral within `integrality_tol` (values are
/// snapped to exact integers), `best_bound` proves optimality within the
/// gap, and `nodes`/`iterations` report search effort. Duals are not
/// populated for MILPs.
///
/// This entry point runs lp::ArenaSolver (one solve-local instance: B&B
/// children warm start from the parent basis via dual simplex; no state
/// survives the call, so results stay a pure function of the inputs). The
/// original stack-of-Problem-copies engine lives on only as a test oracle
/// (tests/oracle/milp_reference.hpp), held equal to this path by
/// tests/lp/solver_differential_test.cpp.
Solution solve_milp(const Problem& problem, const MilpOptions& options = {});

}  // namespace billcap::lp
